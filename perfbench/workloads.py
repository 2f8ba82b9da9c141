"""The workloads' seeded inputs, their timed calls and the correctness gate.

Every input is made from the workload seed; the program only ever sees the
generated requests.  Each runner times exactly the public call it makes and
checks the answer afterwards, outside the timed interval:

* every returned proof is re-checked with ``proofs.checker.check_proof``;
* every definition is checked with ``check_explicit_definition`` on a family
  whose outputs come from the registry's instance builders or from the fuzz
  generator's source expression — never from the synthesized query.

Imports of :mod:`repro` happen inside the runners, so that a runner's
construction is exactly the set-up being timed (import + registry build,
plus the cache warm-up where a workload has one).
"""

from __future__ import annotations

import random
import shutil
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The catalog: every sweepable registry entry except the copy chains.
CHAIN_PREFIX = "copy_chain_"
#: ``cold_catalog``'s seeded fuzz specs (submitted as ``spec_text``): a round
#: sends the next few of the pool, so a run cycles through it.  A bounded pool
#: keeps the process's intern table, and with it the peak RSS, from growing
#: with the number of requests a run completes.
CATALOG_FUZZ_POOL = 16
CATALOG_FUZZ_PER_ROUND = 2
#: ``verify_bulk``'s fuzz corpus: the first specs of fuzz stream 0, warmed into the
#: cache; a round sends the next few of them, each with a fresh seeded family.
BULK_FUZZ_STREAM = 0
BULK_FUZZ_POOL = 64
BULK_FUZZ_PER_ROUND = 4
#: Rows per ``verify_bulk`` family.
BULK_ROWS = 1024
#: Verification family rows on the cold workloads (``verify_scale``).
SMALL_FAMILY = 4
#: Chain lengths of one ``cold_chain`` round, in order.  ``copy_chain_2`` runs
#: four times: the median then lies well inside its samples and rests on a few
#: dozen of them, spread around the long ``copy_chain_3`` requests, rather
#: than on the five or six one round each gives.
CHAIN_ROUND = (1, 2, 2, 3, 2, 2)
#: Rows of the independent check family on the cold workloads.
CHECK_ROWS = 6
#: ``cold_chain``'s tail block: five rounds.  A run completes only 30 to 70
#: requests, a sixth of them the long ``copy_chain_3``; with five of those in
#: a block of 30, the value of rank 20 always lies among the ``copy_chain_2``
#: samples, whatever the number of rounds the machine's speed allows.
CHAIN_TAIL_BLOCK = 5 * len(CHAIN_ROUND)
#: A request running longer than this counts as failed.
DEADLINE_S = {"cold_chain": 60.0, "cold_catalog": 10.0, "verify_bulk": 10.0, "warm_http": 10.0}


@dataclass(slots=True)
class Outcome:
    """What one request produced, kept small: the worker holds many of them."""

    name: str
    seconds: float
    error: Optional[str] = None
    nrc_size: int = 0
    digest: str = ""
    source: str = ""
    attempts: int = 0
    round: int = 0
    #: Over HTTP: the second of the phase in which the answer arrived.
    window: int = 0


@dataclass
class Item:
    """One request of a round: a spec name plus what the runner needs to send and check it."""

    name: str
    payload: object
    check_family: List[dict] = field(default_factory=list)


def catalog_names(registry) -> List[str]:
    return [entry.name for entry in registry.sweepable() if not entry.name.startswith(CHAIN_PREFIX)]


def _sample_rows(entry, rng: random.Random, scale: int, count: int) -> List[dict]:
    rows = entry.instances(scale)
    return rng.sample(rows, min(count, len(rows)))


class _Checker:
    """The correctness gate shared by the in-process runners."""

    def __init__(self) -> None:
        from repro.proofs.checker import check_proof
        from repro.synthesis.verification import check_explicit_definition

        self._check_proof = check_proof
        self._check_definition = check_explicit_definition
        # Weak, so that the gate keeps no proof alive: the process's peak RSS
        # must not grow with the number of cold requests the benchmark checks.
        self._proofs_checked: "weakref.WeakValueDictionary[int, object]" = weakref.WeakValueDictionary()

    def check(self, result, problem, family: List[dict]) -> Optional[str]:
        proof = result.proof
        if proof is None:
            return "no proof returned"
        # A cache hit hands back the same proof object every time; re-check
        # each distinct object once.  An entry goes when its proof is freed,
        # so a reused id never matches a dead proof.
        if id(proof) not in self._proofs_checked:
            try:
                self._check_proof(proof)
            except Exception as exc:  # noqa: BLE001 - any checker failure fails the request
                return f"proof re-check failed: {type(exc).__name__}: {exc}"
            self._proofs_checked[id(proof)] = proof
        if family:
            report = self._check_definition(problem, result.expression, family)
            if not report.ok or report.satisfying != len(family):
                return f"definition wrong on {len(report.mismatches)} of {len(family)} rows"
        return None


class Runner:
    """Base of the in-process runners: set-up in ``__init__``, inputs in ``prepare``.

    A round is one pass over the inputs ``round_items`` returns for it.  The
    fixed part of a workload repeats every round; each round takes the next
    few specs of a fuzz pool, so that no single generated spec dominates a run.
    """

    workload = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        from repro.service.registry import build_default_registry

        self.seed = seed
        self.scratch = scratch
        self.registry = build_default_registry()
        self.items: List[Item] = []
        #: Set (to a ``tracing.SpanRecorder``) for the requests that are traced.
        self.recorder = None

    def timed(self, call, *args):
        """Run one program call; only this interval is timed and traced."""
        recorder = self.recorder
        if recorder is not None:
            recorder.enabled = True
        start = time.perf_counter()
        try:
            result = call(*args)
        finally:
            seconds = time.perf_counter() - start
            if recorder is not None:
                recorder.enabled = False
        return result, seconds

    def prepare(self) -> None:
        """Make the inputs every round shares (not timed, not set-up)."""

    def round_items(self, round_number: int) -> List[Item]:
        return self.items

    def execute(self, item: Item) -> Outcome:
        raise NotImplementedError

    def _finish(self, item: Item, seconds: float, report, problem, family) -> Outcome:
        from repro.nrc.expr import expr_size

        result = report.result
        error = self.checker.check(result, problem, family)
        if error is None and report.verification is not None and not report.verification.ok:
            error = "pipeline verification failed"
        search = report.stage("proof-search")
        return Outcome(
            name=item.name,
            seconds=seconds,
            error=error,
            nrc_size=expr_size(result.expression),
            digest=report.digest,
            source=report.source or report.cache_tier,
            attempts=int(search.detail.get("attempts", 0)) if search is not None else 0,
        )


class ColdChain(Runner):
    """``copy_chain(1..3)`` cold through ``SynthesisPipeline.run`` at depth 16."""

    workload = "cold_chain"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.proofs.search import ProofSearch
        from repro.service.pipeline import SynthesisPipeline

        self.checker = _Checker()
        self._pipeline = SynthesisPipeline(search_factory=lambda: ProofSearch(max_depth=16))

    def prepare(self) -> None:
        from repro.specs import examples

        rng = random.Random(f"{self.seed}:cold_chain")
        by_length = {}
        for length in sorted(set(CHAIN_ROUND)):
            rows = examples.copy_chain_instances(length, 8 * SMALL_FAMILY)
            rng.shuffle(rows)
            family, check = rows[:SMALL_FAMILY], rows[SMALL_FAMILY : SMALL_FAMILY + CHECK_ROWS]
            by_length[length] = Item(f"copy_chain_{length}", (length, family), check)
        self.items = [by_length[length] for length in CHAIN_ROUND]

    def execute(self, item: Item) -> Outcome:
        from repro.specs import examples

        length, family = item.payload
        problem = examples.copy_chain(length)
        report, seconds = self.timed(self._pipeline.run, problem, family)
        return self._finish(item, seconds, report, problem, item.check_family)


class ColdCatalog(Runner):
    """The catalog plus seeded fuzz specs through ``execute_synthesize_request``, all misses."""

    workload = "cold_catalog"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.service import api, workers

        self.checker = _Checker()
        self._api = api
        # Looked up per call, so that a traced run sees the wrapped function.
        self._workers = workers
        self._requests = 0
        self._fuzz: List[Item] = []

    def prepare(self) -> None:
        from repro.specs.fuzz import generate_spec

        rng = random.Random(f"{self.seed}:cold_catalog")
        for name in catalog_names(self.registry):
            entry = self.registry.get(name)
            request = {"problem": name, "verify_scale": SMALL_FAMILY}
            self.items.append(Item(name, (request, entry.problem()), _sample_rows(entry, rng, 16, CHECK_ROWS)))
        for index in range(CATALOG_FUZZ_POOL):
            spec = generate_spec(self.seed, index, instance_count=CHECK_ROWS)
            self._fuzz.append(Item(spec.name, ({"spec_text": spec.spec_text()}, spec.problem), spec.instances))

    def round_items(self, round_number: int) -> List[Item]:
        """The catalog plus the next slice of the fuzz pool, in a seeded order."""
        first = round_number * CATALOG_FUZZ_PER_ROUND
        items = list(self.items)
        items += [self._fuzz[index % len(self._fuzz)] for index in range(first, first + CATALOG_FUZZ_PER_ROUND)]
        random.Random(f"{self.seed}:cold_catalog:{round_number}").shuffle(items)
        return items

    def execute(self, item: Item) -> Outcome:
        fields, problem = item.payload
        self._requests += 1
        cache_dir = self.scratch / f"cache-{self._requests}"
        request = self._api.SynthesizeRequest(cache_dir=str(cache_dir), **fields)
        try:
            (_, _, report), seconds = self.timed(self._workers.execute_synthesize_request, request, self.registry)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if report.cache_hit:
            return Outcome(item.name, seconds, error="fresh cache directory answered a hit")
        return self._finish(item, seconds, report, problem, item.check_family)


class VerifyBulk(Runner):
    """Large families against a warm result cache: registry rows repeat, fuzz rows are fresh.

    The queries are fixed — the catalog and a corpus of fuzz specs — as in a
    database benchmark; the seed draws the data: the order of the registry
    families' rows and every fuzz family.  A fixed corpus keeps the mix of
    cheap and expensive queries the same from seed to seed.
    """

    workload = "verify_bulk"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.proofs.search import ProofSearch
        from repro.service.cache import SynthesisCache
        from repro.service.pipeline import SynthesisPipeline
        from repro.specs.fuzz import generate_spec

        self.checker = _Checker()
        self._specs = [generate_spec(BULK_FUZZ_STREAM, index, instance_count=0) for index in range(BULK_FUZZ_POOL)]
        self._pipeline = SynthesisPipeline(cache=SynthesisCache(), search_factory=lambda: ProofSearch(max_depth=12))
        # The warm-up is part of set-up: work moved into it shows in setup_s.
        for name in catalog_names(self.registry):
            self._pipeline.run(self.registry.problem(name))
        for spec in self._specs:
            self._pipeline.run(spec.problem)
        self._draws = 0

    def prepare(self) -> None:
        rng = random.Random(f"{self.seed}:verify_bulk")
        for name in catalog_names(self.registry):
            entry = self.registry.get(name)
            family = entry.instances(BULK_ROWS)
            rng.shuffle(family)
            self.items.append(Item(name, ("registry", entry.problem(), family)))

    def round_items(self, round_number: int) -> List[Item]:
        """The catalog plus the next slice of the warmed fuzz pool, in a seeded order."""
        first = round_number * BULK_FUZZ_PER_ROUND
        items = list(self.items)
        for index in range(first, first + BULK_FUZZ_PER_ROUND):
            spec = self._specs[index % len(self._specs)]
            items.append(Item(spec.name, ("fuzz", spec.problem, spec)))
        random.Random(f"{self.seed}:verify_bulk:{round_number}").shuffle(items)
        return items

    def _fresh_family(self, spec) -> List[dict]:
        """A never-seen family: fresh random inputs, outputs from the source expression."""
        from repro.specs.fuzz import build_spec

        self._draws += 1
        rng = random.Random(f"{self.seed}:{spec.name}:{self._draws}")
        return build_spec(spec.expr, spec.name, rng, spec.index, instance_count=BULK_ROWS).instances

    def execute(self, item: Item) -> Outcome:
        kind, problem, source = item.payload
        family = source if kind == "registry" else self._fresh_family(source)
        report, seconds = self.timed(self._pipeline.run, problem, family)
        if not report.cache_hit:
            return Outcome(item.name, seconds, error=f"expected a warm cache hit, got {report.cache_tier}")
        if report.verification is None or report.verification.satisfying != len(family):
            return Outcome(item.name, seconds, error="family rows not all satisfying")
        # The pipeline's verification stage already checked the definition on
        # this family (outputs from the builder or the source expression).
        return self._finish(item, seconds, report, problem, [])


RUNNERS = {runner.workload: runner for runner in (ColdChain, ColdCatalog, VerifyBulk)}


# ------------------------------------------------------------------ warm_http
def http_expected(seed: int) -> Tuple[List[str], Dict[str, Tuple[str, str]]]:
    """Seeded round order of the catalog and the in-process answer for each name."""
    from repro.service import api
    from repro.service.registry import build_default_registry
    from repro.service.workers import execute_synthesize_request

    registry = build_default_registry()
    names = catalog_names(registry)
    random.Random(f"{seed}:warm_http").shuffle(names)
    expected = {}
    for name in names:
        response, _, _ = execute_synthesize_request(api.SynthesizeRequest(problem=name), registry)
        expected[name] = (response.digest, response.expression)
    return names, expected
