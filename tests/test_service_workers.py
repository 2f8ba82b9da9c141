"""Parallel scenario runner: inline + multiprocess sweeps, isolation, timeout."""

import pytest

from repro.service.registry import default_registry
from repro.service.workers import JobOutcome, run_sweep

FAST_NAMES = ["identity_view", "union_view", "unique_element"]


def test_inline_sweep_runs_and_orders_outcomes():
    summary = run_sweep(FAST_NAMES, processes=1, verify_scale=8)
    assert [outcome.name for outcome in summary.outcomes] == FAST_NAMES
    assert summary.processes == 1
    assert all(outcome.status == "ok" for outcome in summary.outcomes)
    assert all(outcome.verified is True for outcome in summary.outcomes)
    assert summary.ok and summary.counts == {"ok": 3}
    for outcome in summary.outcomes:
        assert outcome.expression
        assert "proof-search" in outcome.stage_seconds


def test_inline_sweep_isolates_unknown_problem():
    summary = run_sweep(["union_view", "definitely_not_registered"], processes=1)
    by_name = {outcome.name: outcome for outcome in summary.outcomes}
    assert by_name["union_view"].status == "ok"
    assert by_name["definitely_not_registered"].status == "error"
    assert "unknown problem" in by_name["definitely_not_registered"].error
    assert not summary.ok  # an unknown name is an unexpected failure


def test_inline_sweep_records_expected_failures_without_failing():
    # selection_view is a known interpolation limitation: the sweep reports
    # the error but the summary stays ok because the entry is marked xfail.
    summary = run_sweep(["union_view", "selection_view"], processes=1)
    by_name = {outcome.name: outcome for outcome in summary.outcomes}
    assert by_name["union_view"].status == "ok"
    assert by_name["selection_view"].status == "error"
    assert by_name["selection_view"].expected == "xfail"
    assert summary.ok


def test_parallel_sweep_multiprocess():
    summary = run_sweep(FAST_NAMES + ["union_of_3_views"], processes=2, verify_scale=6)
    assert summary.processes == 2
    assert [outcome.name for outcome in summary.outcomes] == FAST_NAMES + ["union_of_3_views"]
    assert all(outcome.status == "ok" for outcome in summary.outcomes)
    assert summary.ok


def test_parallel_sweep_timeout_terminates_stuck_jobs():
    # example_4_1's automated proof search runs far past any small budget; a
    # tiny timeout must kill it without losing the other jobs' results.
    summary = run_sweep(["union_view", "example_4_1"], processes=2, timeout=0.8)
    by_name = {outcome.name: outcome for outcome in summary.outcomes}
    assert by_name["union_view"].status == "ok"
    assert by_name["example_4_1"].status == "timeout"
    assert "timeout" in by_name["example_4_1"].error
    # The entry is marked hard, so its timeout is recorded as expected.
    assert by_name["example_4_1"].expected == "hard"


def test_duplicate_names_keep_both_outcomes():
    summary = run_sweep(["union_view", "union_view"], processes=2, timeout=30)
    assert [outcome.name for outcome in summary.outcomes] == ["union_view", "union_view"]
    assert summary.counts == {"ok": 2}


def test_timeout_is_honored_for_single_job_sweeps():
    # Deadline enforcement needs a killable process, so a one-job sweep with a
    # timeout must take the process path instead of running inline unbounded.
    summary = run_sweep(["example_4_1"], processes=1, timeout=0.8)
    assert summary.outcomes[0].status == "timeout"


def test_inline_sweep_isolates_bad_cache_dir(tmp_path):
    target = tmp_path / "occupied"
    target.write_text("not a directory")
    summary = run_sweep(["union_view"], processes=1, cache_dir=str(target))
    outcome = summary.outcomes[0]
    assert outcome.status == "error"
    assert "FileExistsError" in outcome.error


def test_parallel_sweep_shares_results_through_disk_cache(tmp_path):
    cold = run_sweep(FAST_NAMES, processes=2, cache_dir=str(tmp_path))
    assert all(outcome.status == "ok" for outcome in cold.outcomes)
    assert cold.cache_hits == 0
    warm = run_sweep(FAST_NAMES, processes=2, cache_dir=str(tmp_path))
    assert all(outcome.status == "ok" for outcome in warm.outcomes)
    assert warm.cache_hits == len(FAST_NAMES)
    assert all(outcome.cache_tier == "disk" for outcome in warm.outcomes)
    # Warm sweeps skip proof search entirely.
    for outcome in warm.outcomes:
        assert "proof-search" not in outcome.stage_seconds


def test_default_population_is_the_sweepable_registry():
    summary = run_sweep(processes=1, registry=default_registry(), max_depth=2)
    expected = [entry.name for entry in default_registry().sweepable()]
    assert [outcome.name for outcome in summary.outcomes] == expected
    # With a depth-2 budget most searches fail — but every job still reports.
    assert len(summary.outcomes) == len(expected)


def test_job_outcome_flags():
    ok = JobOutcome("p", "ok", 0.1)
    assert ok.ok and not ok.unexpected_failure
    failed = JobOutcome("p", "error", 0.1, expected="xfail")
    assert not failed.ok and not failed.unexpected_failure
    unexpected = JobOutcome("p", "timeout", 0.1)
    assert unexpected.unexpected_failure
    with pytest.raises(TypeError):
        JobOutcome()  # name/status/seconds are required
