"""Content-addressed cache of synthesis results.

Synthesis is pure: the explicit definition depends only on the specification
``φ(ī, ā, o)`` and the declared variable roles — never on the problem *name*
or the process that ran the proof search.  Results are therefore cached under
a **content address** derived from the interned specification:

* the in-memory tier keys an LRU ``OrderedDict`` on a :class:`SpecKey` whose
  formula component is hash-consed (:func:`repro.core.interning.intern`), so
  key hashing reuses the per-node ``_chash`` cache and key equality degrades
  to pointer comparisons between canonical trees;
* the optional on-disk tier addresses entries by :func:`spec_digest`, a
  SHA-256 over the *deterministic rendering* of the specification and the
  variable signature.  Renderings — unlike Python hashes — are stable across
  processes (``PYTHONHASHSEED``) and machines, so sweep workers and later
  service processes share one persistent store.  Each entry is a pickle of
  the full :class:`~repro.synthesis.implicit_to_explicit.SynthesisResult`
  (AST classes pickle fields-only, see ``core.node.dataclass_state``) next to
  a human-readable JSON sidecar used by ``python -m repro cache-stats``.

Long-running services must not grow without bound; :meth:`SynthesisCache.
maintain` size-bounds the process-global memo structures the synthesis stack
accumulates — the hash-consing intern table (``core/interning.py``) and the
shared columnar :class:`~repro.nr.columns.ValueInterner` (``nr/columns.py``)
— and the **disk tier itself**, with a cost-aware policy: each sidecar
records the synthesis wall-time that produced its entry, and past the bounds
the cheapest-to-recompute entries are evicted first (a microsecond union view
is disposable; a multi-second copy-chain proof is kept).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.interning import clear_intern_cache, intern, intern_cache_stats
from repro.logic.compile import FormulaProgram, export_program, import_program
from repro.logic.formulas import Formula
from repro.logic.terms import Var
from repro.nr.columns import reset_shared_interner, shared_interner_stats
from repro.nrc.expr import expr_size
from repro.obs.trace import get_tracer
from repro.service.api import ApiError, CacheEntryInfo
from repro.service.manifest import MANIFEST_NAME, CacheManifest
from repro.specs.problems import ImplicitDefinitionProblem
from repro.synthesis.implicit_to_explicit import SynthesisResult
from repro.witness.store import WITNESS_SUBDIR, WitnessStore

#: Default bound on the in-memory tier (entries, not bytes: synthesized
#: expressions are small compared to the proof trees they carry).
DEFAULT_CAPACITY = 128

#: Defaults for :meth:`SynthesisCache.maintain`'s process-global bounds.
DEFAULT_INTERN_TABLE_BOUND = 250_000
DEFAULT_INTERNER_ID_BOUND = 1_000_000

#: Defaults for the disk tier's cost-aware eviction (entries / payload bytes).
DEFAULT_DISK_ENTRY_BOUND = 1024
DEFAULT_DISK_PAYLOAD_BOUND = 256 * 1024 * 1024

#: Default bound on persisted compiled programs (``programs/*.pkl``).
DEFAULT_PROGRAM_ENTRY_BOUND = 1024


@dataclass(frozen=True)
class SpecKey:
    """The in-memory content key: interned specification + variable roles."""

    phi: Formula
    inputs: Tuple[Var, ...]
    output: Var
    auxiliaries: Tuple[Var, ...]


def spec_key(problem: ImplicitDefinitionProblem) -> SpecKey:
    """Content key of ``problem`` (the formula component is hash-consed)."""
    return SpecKey(intern(problem.phi), problem.inputs, problem.output, problem.auxiliaries)


def formula_digest(phi: Formula) -> str:
    """Stable hex content address of a bare formula (for the program store)."""
    return hashlib.sha256(str(phi).encode("utf-8")).hexdigest()


def spec_digest(problem: ImplicitDefinitionProblem) -> str:
    """Stable hex content address of ``problem`` (cross-process, cross-machine).

    Built from deterministic renderings: the specification's string form and
    the ``name:type`` signature of every declared variable.  Two problems
    with the same structure share an address even under different problem
    names — the cache stores *results of specifications*, not of labels.
    """
    signature = "\n".join(
        [
            f"phi={problem.phi}",
            "inputs=" + ";".join(f"{v.name}:{v.typ}" for v in problem.inputs),
            f"output={problem.output.name}:{problem.output.typ}",
            "aux=" + ";".join(f"{v.name}:{v.typ}" for v in problem.auxiliaries),
        ]
    )
    return hashlib.sha256(signature.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for both tiers plus maintenance telemetry."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    disk_evictions: int = 0
    program_hits: int = 0
    program_misses: int = 0
    program_stores: int = 0
    program_mismatches: int = 0
    program_evictions: int = 0
    intern_table_clears: int = 0
    interner_rotations: int = 0
    manifest_skew_drops: int = 0
    manifest_bumps: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class SynthesisCache:
    """Two-tier content-addressed store of :class:`SynthesisResult` objects.

    ``capacity`` bounds the in-memory LRU tier; ``disk_dir`` (optional)
    enables the persistent tier shared across processes.  ``lookup`` promotes
    disk hits into memory; ``store`` writes through to both tiers.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        disk_dir: Optional[os.PathLike] = None,
        intern_table_bound: int = DEFAULT_INTERN_TABLE_BOUND,
        interner_id_bound: int = DEFAULT_INTERNER_ID_BOUND,
        disk_entry_bound: Optional[int] = DEFAULT_DISK_ENTRY_BOUND,
        disk_payload_bound: Optional[int] = DEFAULT_DISK_PAYLOAD_BOUND,
        program_entry_bound: Optional[int] = DEFAULT_PROGRAM_ENTRY_BOUND,
        node_id: str = "",
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.intern_table_bound = intern_table_bound
        self.interner_id_bound = interner_id_bound
        self.disk_entry_bound = disk_entry_bound
        self.disk_payload_bound = disk_payload_bound
        self.program_entry_bound = program_entry_bound
        self.node_id = node_id
        self.stats = CacheStats()
        self._lru: "OrderedDict[SpecKey, SynthesisResult]" = OrderedDict()
        self._disk_dirty = False
        self.manifest: Optional[CacheManifest] = None
        self._manifest_generation = 0
        self._manifest_stamp: Optional[Tuple[int, int]] = None
        self.witnesses: Optional[WitnessStore] = None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            self._sweep_stale_tmp_files()
            self.manifest = CacheManifest(self.disk_dir)
            self._manifest_generation = self.manifest.generation()
            self._manifest_stamp = self.manifest.stamp()
            self.witnesses = WitnessStore(
                self.disk_dir / WITNESS_SUBDIR, node_id=node_id, manifest=self.manifest
            )

    def __len__(self) -> int:
        return len(self._lru)

    # -------------------------------------------------------------- manifest
    def _check_manifest(self) -> None:
        """Drop the memory tier when another node bumped the shared manifest.

        The fleet's cooperative-invalidation contract: disk entries are
        content-addressed and can never be wrong, but this node's private LRU
        was warmed under a specific manifest generation — if a peer bumped it
        since, every memory-tier entry is presumptively stale and the LRU is
        cleared (the next lookups re-warm from disk).  The hot path pays one
        ``os.stat`` per call: the generation is only re-read when the
        manifest file's ``(st_mtime_ns, st_ino)`` stamp changed.
        """
        if self.manifest is None:
            return
        stamp = self.manifest.stamp()
        if stamp == self._manifest_stamp:
            return
        self._manifest_stamp = stamp
        generation = self.manifest.generation()
        if generation != self._manifest_generation:
            self._manifest_generation = generation
            if self._lru:
                self._lru.clear()
                self.stats.manifest_skew_drops += 1

    def manifest_generation(self) -> int:
        """The manifest generation this node's memory tier was warmed under."""
        self._check_manifest()
        return self._manifest_generation

    def invalidate(self) -> int:
        """Drop this node's memory tier and signal the whole fleet to follow.

        Bumps the shared manifest generation (a no-op signal without a disk
        tier); every peer's next ``lookup``/``peek`` observes the bump and
        drops its own memory tier.  Returns the new generation.
        """
        self._lru.clear()
        if self.manifest is None:
            return 0
        state = self.manifest.bump(self.node_id)
        self._manifest_generation = state.generation
        self._manifest_stamp = self.manifest.stamp()
        self.stats.manifest_bumps += 1
        return state.generation

    # ---------------------------------------------------------------- lookup
    def lookup(
        self, problem: ImplicitDefinitionProblem
    ) -> Tuple[Optional[SynthesisResult], str]:
        """``(result, tier)`` with tier in ``"memory"``/``"disk"``/``"miss"``."""
        with get_tracer().span("cache.lookup") as span:
            result, tier = self._lookup(problem)
            span.set_attribute("tier", tier)
            return result, tier

    def _lookup(
        self, problem: ImplicitDefinitionProblem
    ) -> Tuple[Optional[SynthesisResult], str]:
        self._check_manifest()
        key = spec_key(problem)
        result = self._lru.get(key)
        if result is not None:
            self._lru.move_to_end(key)
            self.stats.hits += 1
            return result, "memory"
        result = self.promote(problem)
        if result is not None:
            self.stats.hits += 1
            return result, "disk"
        self.stats.misses += 1
        return None, "miss"

    def get(self, problem: ImplicitDefinitionProblem) -> Optional[SynthesisResult]:
        return self.lookup(problem)[0]

    def peek(self, problem: ImplicitDefinitionProblem) -> Optional[str]:
        """The tier that *would* serve ``problem`` (no stats, no promotion).

        The async front-end uses this to decide whether a submission can be
        answered inline (warm) instead of entering the job queue; a peek must
        therefore never mutate LRU order or hit/miss counters.  (Manifest
        skew *is* honoured — serving a stale memory entry inline would break
        the fleet's invalidation contract.)
        """
        self._check_manifest()
        if spec_key(problem) in self._lru:
            return "memory"
        if self.disk_dir is not None:
            payload_path, _ = self._entry_paths(spec_digest(problem))
            if payload_path.exists():
                return "disk"
        return None

    def promote(self, problem: ImplicitDefinitionProblem) -> Optional[SynthesisResult]:
        """Load ``problem``'s disk entry into the memory tier; ``None`` if absent.

        Counts ``disk_hits`` (the disk was read) but not ``hits``: a caller
        that peeked a disk entry and runs the pipeline next leaves the one
        hit to the pipeline's own ``lookup``.  ``None`` when there is no disk
        tier or the entry is gone or unreadable.
        """
        if self.disk_dir is None:
            return None
        result = self._disk_load(spec_digest(problem))
        if result is None:
            return None
        self.stats.disk_hits += 1
        self._memory_store(spec_key(problem), result)
        return result

    # ----------------------------------------------------------------- store
    def store(
        self,
        problem: ImplicitDefinitionProblem,
        result: SynthesisResult,
        digest: Optional[str] = None,
        cost_seconds: float = 0.0,
    ) -> str:
        """Write ``result`` through both tiers; returns the content digest.

        ``digest`` lets callers that already computed :func:`spec_digest`
        (the pipeline puts it in every report) avoid rendering φ twice.
        ``cost_seconds`` is the synthesis wall-time recorded in the sidecar —
        the recompute cost the disk tier's eviction policy keys on.
        """
        with get_tracer().span("cache.store") as span:
            if digest is None:
                digest = spec_digest(problem)
            self._memory_store(spec_key(problem), result)
            self.stats.stores += 1
            if self.disk_dir is not None:
                self._disk_store(digest, problem, result, cost_seconds)
                self.stats.disk_stores += 1
                self._disk_dirty = True
            span.set_attributes({"digest": digest, "disk": self.disk_dir is not None})
            return digest

    def store_memory(self, problem: ImplicitDefinitionProblem, result: SynthesisResult) -> None:
        """Populate only the in-memory tier (no sidecar, no disk write).

        Used by the server's parent process to adopt results synthesized in a
        worker process: the worker already wrote the disk tier (when one is
        configured), so the parent only needs the warm LRU slot.
        """
        self._memory_store(spec_key(problem), result)

    # ----------------------------------------------------- compiled programs
    #: Subdirectory of ``disk_dir`` holding persisted compiled programs.  A
    #: separate directory keeps the ``*.json`` sidecar scan of the result
    #: tier (and its eviction policy) blind to program payloads.
    PROGRAM_SUBDIR = "programs"

    def _program_path(self, phi: Formula) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / self.PROGRAM_SUBDIR / f"{formula_digest(phi)}.pkl"

    def store_program(self, program: FormulaProgram) -> bool:
        """Persist ``program`` (code + verified rows) into the disk tier.

        The payload is versioned by :func:`repro.logic.compile.
        compiler_fingerprint`; see :func:`~repro.logic.compile.export_program`.
        Returns ``False`` when no disk tier is configured.
        """
        path = self._program_path(program.formula)
        if path is None:
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(export_program(program), protocol=pickle.HIGHEST_PROTOCOL)
        _atomic_write_bytes(path, blob)
        self.stats.program_stores += 1
        self._disk_dirty = True
        return True

    def load_program(self, phi: Formula) -> Optional[FormulaProgram]:
        """A persisted compiled program for ``phi``, or ``None`` to recompile.

        Every failure mode — no disk tier, no payload, torn pickle,
        fingerprint mismatch — is a miss; a fingerprint mismatch additionally
        drops the stale payload so it is rewritten by the next store.
        """
        path = self._program_path(phi)
        if path is None:
            return None
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.program_misses += 1
            return None
        try:
            payload = pickle.loads(blob)
            program = import_program(payload, phi) if isinstance(payload, dict) else None
        except Exception:
            program = None
        if program is None:
            self.stats.program_mismatches += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.program_hits += 1
        return program

    def _memory_store(self, key: SpecKey, result: SynthesisResult) -> None:
        lru = self._lru
        if key in lru:
            lru.move_to_end(key)
        lru[key] = result
        while len(lru) > self.capacity:
            lru.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the in-memory tier (the disk tier is left untouched)."""
        self._lru.clear()

    # ----------------------------------------------------------- maintenance
    def maintain(self) -> None:
        """Size-bound the process-global memo structures synthesis feeds.

        Called by the pipeline after every run: polls the telemetry hooks
        (:func:`~repro.core.interning.intern_cache_stats`,
        :func:`~repro.nr.columns.shared_interner_stats`) and applies their
        clearing actions when this cache's bounds are exceeded.  The
        hash-consing intern table and the shared columnar interner are pure
        caches — clearing or rotating them never changes results, it only
        resets sharing — so bounding them here keeps long-running service
        processes flat.  (Processes that drive synthesis without a pipeline
        can instead install standing insert-time bounds via
        ``set_intern_table_limit`` / ``set_shared_interner_max_ids``.)
        """
        if self.intern_table_bound and intern_cache_stats()["nodes"] > self.intern_table_bound:
            clear_intern_cache()
            self.stats.intern_table_clears += 1
        if self.interner_id_bound and shared_interner_stats()["ids"] > self.interner_id_bound:
            reset_shared_interner()
            self.stats.interner_rotations += 1
        if self._disk_dirty:
            self._disk_dirty = False
            self._evict_cheapest_disk_entries()
            self._evict_oldest_programs()
        if self.witnesses is not None:
            self.witnesses.maintain()

    def _evict_cheapest_disk_entries(self) -> None:
        """Bound the disk tier, evicting cheapest-to-recompute entries first.

        Ordered by ``(synthesis_seconds, created)`` ascending: of two entries
        over budget, the one whose proof search was cheaper goes first; among
        equally cheap entries the oldest goes first.  Only runs after a disk
        store (``_disk_dirty``), so warm traffic never pays the directory
        scan.
        """
        if self.disk_dir is None or (not self.disk_entry_bound and not self.disk_payload_bound):
            return
        entries = disk_entries(self.disk_dir)
        total_bytes = sum(entry.payload_bytes for entry in entries)
        over_entries = self.disk_entry_bound and len(entries) > self.disk_entry_bound
        over_bytes = self.disk_payload_bound and total_bytes > self.disk_payload_bound
        if not over_entries and not over_bytes:
            return
        by_cost = sorted(entries, key=lambda entry: (entry.synthesis_seconds, entry.created))
        count = len(entries)
        evicted = 0
        for victim in by_cost:
            over_entries = self.disk_entry_bound and count > self.disk_entry_bound
            over_bytes = self.disk_payload_bound and total_bytes > self.disk_payload_bound
            if not over_entries and not over_bytes:
                break
            self._disk_evict(victim.digest)
            self.stats.disk_evictions += 1
            count -= 1
            total_bytes -= victim.payload_bytes
            evicted += 1
        if evicted:
            # Peers may hold memory-tier copies of the evicted entries; bump
            # the generation so their next lookup drops and re-warms.
            self._announce_evictions()

    def _evict_oldest_programs(self) -> None:
        """Bound ``programs/``, oldest payloads first, announcing via manifest.

        Program payloads have no sidecar (cost metadata lives with the result
        tier), so the policy is plain FIFO by mtime.  Evictions are announced
        through the shared manifest exactly like result evictions — peer nodes
        may hold the dropped programs' rows in warm memo structures, and must
        observe the bump to re-derive rather than trust a stale memo.
        """
        if self.disk_dir is None or not self.program_entry_bound:
            return
        program_dir = self.disk_dir / self.PROGRAM_SUBDIR
        payloads = []
        for path in program_dir.glob("*.pkl"):
            try:
                payloads.append((path.stat().st_mtime, path))
            except OSError:
                continue
        excess = len(payloads) - self.program_entry_bound
        if excess <= 0:
            return
        evicted = 0
        for _, path in sorted(payloads)[:excess]:
            try:
                path.unlink()
            except OSError:
                continue
            self.stats.program_evictions += 1
            evicted += 1
        if evicted:
            self._announce_evictions()

    def _announce_evictions(self) -> None:
        """Bump the shared manifest so peers drop memory copies of evictees."""
        if self.manifest is None:
            return
        state = self.manifest.bump(self.node_id)
        self._manifest_generation = state.generation
        self._manifest_stamp = self.manifest.stamp()
        self.stats.manifest_bumps += 1

    # ------------------------------------------------------------- disk tier
    #: A worker SIGTERMed mid-write (the sweep's per-job timeout) can leave a
    #: ``*.tmp`` file behind; anything older than this is safe to reap.
    STALE_TMP_SECONDS = 600.0

    def _sweep_stale_tmp_files(self) -> None:
        cutoff = time.time() - self.STALE_TMP_SECONDS
        for tmp in (
            list(self.disk_dir.glob("*.tmp"))
            + list(self.disk_dir.glob(f"{self.PROGRAM_SUBDIR}/*.tmp"))
            + list(self.disk_dir.glob(f"{WITNESS_SUBDIR}/*.tmp"))
        ):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                continue

    def _entry_paths(self, digest: str) -> Tuple[Path, Path]:
        assert self.disk_dir is not None
        return self.disk_dir / f"{digest}.pkl", self.disk_dir / f"{digest}.json"

    def _disk_load(self, digest: str) -> Optional[SynthesisResult]:
        payload_path, _ = self._entry_paths(digest)
        try:
            blob = payload_path.read_bytes()
        except OSError:
            return None
        try:
            result = pickle.loads(blob)
        except Exception:
            # A truncated or stale entry must read as a miss, never an error;
            # drop it so the slot is rebuilt by the next store.
            self._disk_evict(digest)
            return None
        if not isinstance(result, SynthesisResult):
            self._disk_evict(digest)
            return None
        # Re-canonicalize so the loaded tree shares caches with live nodes.
        result.expression = intern(result.expression)
        return result

    def _disk_store(
        self,
        digest: str,
        problem: ImplicitDefinitionProblem,
        result: SynthesisResult,
        cost_seconds: float = 0.0,
    ) -> None:
        payload_path, meta_path = self._entry_paths(digest)
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        meta = CacheEntryInfo(
            digest=digest,
            name=problem.name,
            expression=str(result.expression),
            expression_size=expr_size(result.expression),
            proof_size=result.proof_size,
            created=time.time(),
            payload_bytes=len(blob),
            synthesis_seconds=round(cost_seconds, 6),
        )
        _atomic_write_bytes(payload_path, blob)
        _atomic_write_bytes(meta_path, (meta.to_json() + "\n").encode())

    def _disk_evict(self, digest: str) -> None:
        for path in self._entry_paths(digest):
            try:
                path.unlink()
            except OSError:
                pass

    def disk_entries(self) -> List[CacheEntryInfo]:
        """Metadata of every persistent entry (newest first)."""
        if self.disk_dir is None:
            return []
        return disk_entries(self.disk_dir)


def disk_entries(disk_dir: os.PathLike) -> List[CacheEntryInfo]:
    """Read every JSON sidecar under ``disk_dir`` (tolerating corrupt ones)."""
    entries = []
    for meta_path in sorted(Path(disk_dir).glob("*.json")):
        if meta_path.name == MANIFEST_NAME:
            continue
        try:
            entries.append(CacheEntryInfo.from_json(meta_path.read_text()))
        except (OSError, ValueError, ApiError):
            continue
    entries.sort(key=lambda entry: entry.created, reverse=True)
    return entries


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-then-rename so concurrent sweep workers never read torn entries."""
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
