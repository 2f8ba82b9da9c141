"""Witness store: crash consistency, incremental resynthesis, hand-written proofs."""

import logging
import pickle
import random

import pytest

from repro.errors import ProofError
from repro.logic.formulas import EqUr, NeqUr
from repro.logic.terms import Var
from repro.nr.types import UR, SetType
from repro.nrc.expr import NDiff, NUnion, NVar
from repro.obs.metrics import get_registry
from repro.proofs.checker import check_proof
from repro.proofs.prooftree import ProofNode, iter_nodes
from repro.proofs.search import ProofSearch, SearchTables
from repro.proofs.sequents import Sequent
from repro.service.cache import SynthesisCache
from repro.service.pipeline import SynthesisPipeline
from repro.specs.fuzz import MutationChecker, build_spec, mutate_spec, run_fuzz
from repro.witness.diff import diff_formulas, replace_subtrees
from repro.witness.handwritten import (
    HANDWRITTEN,
    HANDWRITTEN_PROBLEMS,
    Prover,
    TacticError,
    handwritten_proof,
    install_handwritten,
    replay_handwritten,
)
from repro.witness.incremental import (
    _edit_mapping,
    _translate_proof,
    _Translation,
    seed_search_tables,
    warm_tables_from_store,
)
from repro.witness.store import (
    WitnessRecord,
    WitnessStore,
    witness_digest,
    witness_fingerprint,
)

SET_UR = SetType(UR)
I1, I2, I3 = NVar("I1", SET_UR), NVar("I2", SET_UR), NVar("I3", SET_UR)


def _spec(expr, name="wit_spec", seed=0, instance_count=2):
    return build_spec(expr, name, random.Random(seed), instance_count=instance_count)


def _proof(problem):
    return ProofSearch(max_depth=12).prove(problem.determinacy_goal())


def _miss_value(reason):
    counter = get_registry().counter(
        "repro_witness_misses_total",
        "Witness-store lookups that fell back to cold synthesis",
        labelnames=("reason",),
    )
    return counter.value(reason=reason)


@pytest.fixture(scope="module")
def union_spec():
    return _spec(NUnion(NDiff(I1, I2), I3), name="wit_union")


@pytest.fixture(scope="module")
def union_proof(union_spec):
    return _proof(union_spec.problem)


# ------------------------------------------------------------------ the store
def test_put_get_roundtrip_across_processes(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="wit_union", problem=union_spec.problem)
    assert record.digest == witness_digest(union_proof.sequent)
    assert record.digest in store and len(store) == 1
    # A fresh store instance simulates another process: the read path must
    # unpickle, validate the address, and fully re-check the proof.
    fresh = WitnessStore(tmp_path)
    got = fresh.get_for_sequent(union_spec.problem.determinacy_goal())
    assert got is not None and got.digest == record.digest
    assert got.name == "wit_union"
    assert got.problem is not None and got.problem.name == union_spec.problem.name
    check_proof(got.proof)
    assert fresh.stats.hits == 1 and fresh.stats.invalid_payloads == 0
    summaries = fresh.list()
    assert [summary.digest for summary in summaries] == [record.digest]
    assert summaries[0].proof_size == record.proof_size
    assert summaries[0].payload_bytes > 0


def test_export_import_payload(tmp_path, union_spec, union_proof):
    source = WitnessStore(tmp_path / "src")
    record = source.put(union_proof, name="exported", problem=union_spec.problem)
    blob = source.export_payload(record.digest)
    assert blob is not None
    assert source.export_payload("0" * 64) is None
    target = WitnessStore(tmp_path / "dst")
    adopted = target.import_payload(blob)
    assert adopted is not None and adopted.digest == record.digest
    assert WitnessStore(tmp_path / "dst").get(record.digest) is not None


def test_import_rejects_garbage(tmp_path):
    store = WitnessStore(tmp_path)
    with pytest.raises(ProofError):
        store.import_payload(b"not a pickle at all")
    with pytest.raises(ProofError):
        store.import_payload(pickle.dumps({"fingerprint": "stale"}))
    assert len(store) == 0


def test_memory_tier_fronts_the_disk(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="warm", problem=union_spec.problem)
    # Delete the on-disk payload behind the store's back: the in-process LRU
    # still serves the record (it validated at write time) ...
    store.path(record.digest).unlink()
    assert store.get(record.digest) is not None
    # ... while a fresh instance sees a clean absent-file miss.
    assert WitnessStore(tmp_path).get(record.digest) is None


# ----------------------------------------------------------- crash consistency
def test_truncated_payload_is_a_clean_miss(tmp_path, union_spec, union_proof, caplog):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="torn", problem=union_spec.problem)
    blob = store.path(record.digest).read_bytes()
    store.path(record.digest).write_bytes(blob[: len(blob) // 3])
    before = _miss_value("truncated")
    fresh = WitnessStore(tmp_path)
    with caplog.at_level(logging.WARNING, logger="repro.witness"):
        assert fresh.get(record.digest) is None
    assert _miss_value("truncated") == before + 1
    assert fresh.stats.invalid_payloads == 1
    assert any("rejected" in message for message in caplog.messages)
    # The corrupt slot was evicted so the next store rebuilds it cleanly.
    assert record.digest not in fresh


def test_stale_fingerprint_is_a_clean_miss(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="stale", problem=union_spec.problem)
    payload = pickle.loads(store.path(record.digest).read_bytes())
    assert payload["fingerprint"] == witness_fingerprint()
    payload["fingerprint"] = "0" * 64
    store.path(record.digest).write_bytes(pickle.dumps(payload))
    before = _miss_value("fingerprint")
    assert WitnessStore(tmp_path).get(record.digest) is None
    assert _miss_value("fingerprint") == before + 1


def test_digest_mismatch_is_a_clean_miss(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="moved", problem=union_spec.problem)
    # A payload parked under the wrong content address must not be served.
    wrong = "f" * 64
    store.path(wrong).write_bytes(store.path(record.digest).read_bytes())
    before = _miss_value("digest")
    fresh = WitnessStore(tmp_path)
    assert fresh.get(wrong) is None
    assert _miss_value("digest") == before + 1
    # The genuine address still reads fine.
    assert fresh.get(record.digest) is not None


def test_non_checking_proof_is_a_clean_miss(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="broken", problem=union_spec.problem)
    payload = pickle.loads(store.path(record.digest).read_bytes())
    proof = payload["proof"]
    assert proof.premises  # the determinacy proof is not a bare axiom
    # Same conclusion sequent (address validates), but the inference below it
    # is gone — exactly what a bit-rotted or hand-tampered payload looks like.
    payload["proof"] = ProofNode(proof.rule, proof.sequent, (), proof.meta)
    store.path(record.digest).write_bytes(pickle.dumps(payload))
    before = _miss_value("invalid-proof")
    fresh = WitnessStore(tmp_path)
    assert fresh.get(record.digest) is None
    assert _miss_value("invalid-proof") == before + 1
    assert record.digest not in fresh


def test_maintain_bounds_the_tier(tmp_path):
    store = WitnessStore(tmp_path, entry_bound=2)
    for index, expr in enumerate((I1, NUnion(I1, I2), NDiff(I1, I2), NUnion(I1, I3))):
        spec = _spec(expr, name=f"bound_{index}", seed=index)
        store.put(_proof(spec.problem), name=spec.problem.name, problem=spec.problem)
    assert store.maintain() == 2
    assert len(store) == 2
    assert store.stats.evictions == 2
    assert store.maintain() == 0  # not dirty: no rescan, nothing more to evict


# ------------------------------------------------------- incremental reseeding
def test_seed_search_tables_warm_mode(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    record = store.put(union_proof, name="warm", problem=union_spec.problem)
    tables = SearchTables()
    seed = seed_search_tables(tables, record)
    assert seed.seeded > 0 and seed.diff_sites == 0
    assert tables.successes[record.sequent] is record.proof


def test_warm_tables_from_store(tmp_path, union_spec, union_proof):
    store = WitnessStore(tmp_path)
    store.put(union_proof, name="fleet", problem=union_spec.problem)
    tables = SearchTables()
    warmed = warm_tables_from_store(store, tables)
    assert warmed > 0
    assert union_spec.problem.determinacy_goal() in tables.successes


def test_diff_localizes_the_edit(union_spec):
    edited = _spec(NUnion(NDiff(I1, I3), I3), name="wit_union", seed=1)
    diff = diff_formulas(union_spec.problem.phi, edited.problem.phi)
    assert not diff.identical and diff.sites
    identity = diff_formulas(union_spec.problem.phi, union_spec.problem.phi)
    assert identity.identical


def test_problem_memos_stay_out_of_pickles(union_spec):
    problem = union_spec.problem
    goal = problem.determinacy_goal()
    assert problem.determinacy_goal() is goal
    copy = pickle.loads(pickle.dumps(problem))
    assert not [key for key in copy.__dict__ if key.startswith("_")]
    assert copy == problem and copy.determinacy_goal() == goal


def test_translation_rewrites_every_sequent_member(union_spec, union_proof):
    # Sequents are rewritten by set algebra over the members known to change;
    # the result must equal rewriting each member on its own, and untouched
    # sequents must come back as the same objects.
    edited = _spec(NUnion(NDiff(I1, I3), I3), name="wit_union", seed=1)
    record = WitnessRecord("", "", union_proof, 0.0, problem=union_spec.problem)
    _, mapping = _edit_mapping(record, edited.problem)
    translated = _translate_proof(union_proof, _Translation(mapping))
    cache = {}
    changed = 0
    for old, new in zip(iter_nodes(union_proof), iter_nodes(translated)):
        expected = Sequent(
            frozenset(replace_subtrees(atom, mapping, cache) for atom in old.sequent.theta),
            frozenset(replace_subtrees(formula, mapping, cache) for formula in old.sequent.delta),
        )
        assert new.sequent == expected
        if expected == old.sequent:
            assert new.sequent is old.sequent
        else:
            changed += 1
    assert changed
    check_proof(translated)
    assert translated.sequent == edited.problem.determinacy_goal()


def test_incremental_pipeline_matches_cold_byte_for_byte(tmp_path, union_spec):
    edited = _spec(NUnion(NDiff(I1, I3), I3), name="wit_edited", seed=1)
    cache = SynthesisCache(disk_dir=tmp_path)
    factory = lambda: ProofSearch(max_depth=12)  # noqa: E731
    ancestor_report = SynthesisPipeline(cache=cache, search_factory=factory).run(
        union_spec.problem, union_spec.instances
    )
    assert ancestor_report.source == "cold"
    digest = witness_digest(union_spec.problem.determinacy_goal())
    assert digest in cache.witnesses
    incremental = SynthesisPipeline(cache=cache, search_factory=factory).run(
        edited.problem, edited.instances, ancestor=digest
    )
    assert incremental.source == "incremental"
    cold = SynthesisPipeline(search_factory=factory).run(edited.problem, edited.instances)
    assert str(incremental.result.expression) == str(cold.result.expression)
    assert incremental.verification is not None and incremental.verification.ok
    stage_names = [stage.name for stage in incremental.stages]
    assert "witness-lookup" in stage_names


def test_exact_witness_replay_after_result_tier_loss(tmp_path, union_spec):
    factory = lambda: ProofSearch(max_depth=12)  # noqa: E731
    cache = SynthesisCache(disk_dir=tmp_path)
    first = SynthesisPipeline(cache=cache, search_factory=factory).run(
        union_spec.problem, union_spec.instances
    )
    # Lose the result tier (top-level payloads) but keep witnesses/ — the
    # stored proof replays instead of a cold search.
    for path in tmp_path.iterdir():
        if path.is_file():
            path.unlink()
    replay_cache = SynthesisCache(disk_dir=tmp_path)
    replay = SynthesisPipeline(cache=replay_cache, search_factory=factory).run(
        union_spec.problem, union_spec.instances
    )
    assert replay.source == "witness"
    assert str(replay.result.expression) == str(first.result.expression)


def test_unresolvable_ancestor_degrades_to_cold(tmp_path, union_spec):
    cache = SynthesisCache(disk_dir=tmp_path)
    factory = lambda: ProofSearch(max_depth=12)  # noqa: E731
    report = SynthesisPipeline(cache=cache, search_factory=factory).run(
        union_spec.problem, union_spec.instances, ancestor="0" * 64
    )
    assert report.source == "cold"
    assert report.result is not None


# ------------------------------------------------------------- tactic engine
def _ur(name):
    return Var(name, UR)


def test_prover_closes_reflexive_equality():
    x = _ur("x")
    prover = Prover(Sequent.of((), [EqUr(x, x)]))
    prover.close_eq(EqUr(x, x))
    proof = prover.qed()
    check_proof(proof)
    assert proof.sequent == Sequent.of((), [EqUr(x, x)])


def test_prover_equality_chain_closure():
    a, b, c = _ur("a"), _ur("b"), _ur("c")
    # Refutation reading: hypotheses a=b, b=c ride in Δ negated; the goal
    # a=c closes by chaining ≠-rule rewrites into a reflexive equality.
    goal = Sequent.of((), [NeqUr(a, b), NeqUr(b, c), EqUr(a, c)])
    prover = Prover(goal)
    prover.equality()
    proof = prover.qed()
    check_proof(proof)
    assert proof.sequent == goal


def test_prover_equality_raises_when_underivable():
    a, b, c, d = _ur("a"), _ur("b"), _ur("c"), _ur("d")
    prover = Prover(Sequent.of((), [NeqUr(a, b), EqUr(c, d)]))
    with pytest.raises(TacticError):
        prover.equality()


def test_prover_rejects_wrong_principal():
    x = _ur("x")
    prover = Prover(Sequent.of((), [EqUr(x, x)]))
    with pytest.raises(TacticError):
        prover.split(EqUr(x, x))
    with pytest.raises(ProofError):
        prover.qed()  # the goal is still open


# ------------------------------------------------------- hand-written proofs
@pytest.mark.parametrize("name", sorted(HANDWRITTEN))
def test_handwritten_proof_checks_against_its_goal(name):
    proof = handwritten_proof(name)
    check_proof(proof)
    assert proof.sequent == HANDWRITTEN_PROBLEMS[name]().determinacy_goal()


def test_install_and_replay_handwritten_end_to_end(tmp_path):
    store = WitnessStore(tmp_path)
    records = install_handwritten(store)
    assert set(records) == set(HANDWRITTEN)
    # A fresh store instance forces the real disk round trip (unpickle,
    # address validation, full proof re-check) before interpolation.
    fresh = WitnessStore(tmp_path)
    for name in sorted(HANDWRITTEN):
        report = replay_handwritten(fresh, name, scale=2)
        assert report.name == name
        assert report.proof_nodes > 100  # these are genuinely hard proofs
        assert report.interpolant is not None
        assert report.conditions_checked >= 8


def test_handwritten_survives_export_import(tmp_path):
    source = WitnessStore(tmp_path / "src")
    records = install_handwritten(source)
    target = WitnessStore(tmp_path / "dst")
    for name, record in records.items():
        blob = source.export_payload(record.digest)
        assert blob is not None
        target.import_payload(blob)
    for name in sorted(HANDWRITTEN):
        report = replay_handwritten(WitnessStore(tmp_path / "dst"), name, scale=2)
        assert report.conditions_checked >= 8


# --------------------------------------------------------- edit-mode fuzzing
def test_mutate_spec_is_deterministic(union_spec):
    first = mutate_spec(union_spec, random.Random("m"), instance_count=2)
    second = mutate_spec(union_spec, random.Random("m"), instance_count=2)
    assert first is not None and second is not None
    assert first.expr == second.expr and first.expr != union_spec.expr
    assert first.name == "wit_union_edited"


def test_mutation_checker_agrees_with_cold(union_spec):
    checker = MutationChecker(max_depth=12, instance_count=2)
    assert checker.check(union_spec) is None
    assert sum(checker.sources.values()) == 1


def test_run_fuzz_mutate_mode():
    report = run_fuzz(seed=7, count=4, mutate=True, shrink=False)
    assert report.ok and report.checked == 4
    assert all(count >= 0 for count in report.sources.values())


def test_run_fuzz_mutate_rejects_remote():
    with pytest.raises(ValueError):
        run_fuzz(seed=0, count=1, mutate=True, url="http://localhost:1")
