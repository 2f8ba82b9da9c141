"""Content-addressed, crash-safe store of checked proof witnesses.

A *witness* is a focused proof of a determinacy sequent (Theorem 2's input).
The store keeps one pickle payload per witness under a ``witnesses/`` disk
subdirectory, addressed by :func:`witness_digest` — a SHA-256 over the
canonical rendering of the proof's conclusion sequent.  Sequent renderings
sort their members (:class:`repro.proofs.sequents.Sequent.__str__`), so the
address is deterministic across processes and machines, exactly like the
result tier's :func:`repro.service.cache.spec_digest`.

Durability follows the persisted-program playbook of
:mod:`repro.logic.compile`:

* every payload embeds :func:`witness_fingerprint` — bump
  :data:`WITNESS_FORMAT_VERSION` on any change to the payload shape or the
  proof calculus and old payloads silently re-read as cold misses;
* writes are atomic (write to ``*.tmp`` then ``os.replace``) so a worker
  killed mid-store never leaves a torn payload behind;
* **every** failure mode on the read path — absent file, truncated pickle,
  fingerprint skew, digest mismatch, a proof tree whose sequent no longer
  checks — logs, counts a ``repro_witness_misses_total`` sample and returns
  ``None``: the caller falls back to cold synthesis, never to an error.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ProofError
from repro.obs.metrics import get_registry
from repro.proofs.checker import check_proof
from repro.proofs.prooftree import FOCUSED_RULES, ProofNode, proof_size
from repro.proofs.sequents import Sequent
from repro.specs.problems import ImplicitDefinitionProblem

_log = logging.getLogger("repro.witness")

#: Subdirectory (of a cache ``disk_dir``) holding witness payloads.
WITNESS_SUBDIR = "witnesses"

#: Bump on any change to the payload dict shape or the proof-tree format.
WITNESS_FORMAT_VERSION = 1

#: Default bound on stored witnesses per store (cost of a witness is one
#: pickle; the bound exists so interactive editing sessions cannot grow the
#: tier without limit).
DEFAULT_WITNESS_ENTRY_BOUND = 512

#: Bound on the in-process record LRU fronting the disk tier.  Records enter
#: it only after validating (at write or on a disk read), so a memory hit is
#: as trustworthy as the validation level it was admitted at.
DEFAULT_WITNESS_MEMORY_BOUND = 32


def witness_fingerprint() -> str:
    """Version stamp baked into every persisted witness payload.

    Mirrors :func:`repro.logic.compile.compiler_fingerprint`: any skew in the
    payload format or the rule inventory of the focused calculus invalidates
    old payloads, and the read path answers ``None`` for anything it cannot
    trust, so the worst case is always a clean cold proof search.
    """
    parts = (
        f"format={WITNESS_FORMAT_VERSION}",
        "rules=" + ",".join(FOCUSED_RULES),
        f"pickle={pickle.HIGHEST_PROTOCOL}",
    )
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def witness_digest(sequent: Sequent) -> str:
    """Stable hex content address of a witness: SHA-256 of the canonical
    rendering of its conclusion sequent (cross-process, cross-machine)."""
    return hashlib.sha256(f"sequent={sequent}".encode("utf-8")).hexdigest()


@dataclass
class WitnessRecord:
    """One stored witness: the checked proof plus its provenance."""

    digest: str
    name: str
    proof: ProofNode
    created: float
    #: The specification the proof belongs to, when known.  Carrying the
    #: problem lets the incremental driver diff an ancestor spec against an
    #: edited one without any side channel.
    problem: Optional[ImplicitDefinitionProblem] = None
    #: Digests of the component witnesses of a product-typed output (the
    #: Appendix G recursion), in ``product_subproblems`` order.  Lets the
    #: incremental driver walk from a top-level witness to its component
    #: proofs without recomputing any determinacy goal.
    components: Tuple[str, ...] = ()

    @property
    def proof_size(self) -> int:
        return proof_size(self.proof)

    @property
    def sequent(self) -> Sequent:
        return self.proof.sequent


def export_witness(
    proof: ProofNode,
    name: str = "",
    problem: Optional[ImplicitDefinitionProblem] = None,
    components: Tuple[str, ...] = (),
) -> dict:
    """A picklable, fingerprinted payload for ``proof``.

    The sequent rendering rides along explicitly so the read path can verify
    the content address without re-rendering a tree it does not yet trust.
    """
    return {
        "fingerprint": witness_fingerprint(),
        "digest": witness_digest(proof.sequent),
        "sequent": str(proof.sequent),
        "name": name,
        "created": time.time(),
        "proof": proof,
        "problem": problem,
        "components": tuple(components),
    }


@dataclass
class WitnessStoreStats:
    """Counters for the witness tier (shape-compatible with ``CacheStats``)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalid_payloads: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class WitnessSummary:
    """One witness's sidecar metadata (``repro witness list``)."""

    digest: str
    name: str
    proof_size: int
    created: float
    payload_bytes: int = 0
    sequent: str = ""

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)

    def to_api(self):
        """The same metadata as the service's wire contract ``api.WitnessInfo``."""
        from repro.service.api import WitnessInfo  # deferred: repro.service imports this module

        return WitnessInfo(**self.as_dict())


class WitnessStore:
    """The ``witnesses/`` disk tier: digest → checked proof tree.

    ``manifest`` (optional, the cache's shared :class:`~repro.service.
    manifest.CacheManifest`) is bumped whenever maintenance evicts entries,
    so fleet peers drop memory copies warmed from evicted witnesses — the
    same cooperative-invalidation contract the result tier follows.
    """

    def __init__(
        self,
        root: os.PathLike,
        node_id: str = "",
        manifest=None,
        entry_bound: Optional[int] = DEFAULT_WITNESS_ENTRY_BOUND,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.node_id = node_id
        self.manifest = manifest
        self.entry_bound = entry_bound
        self.memory_bound = DEFAULT_WITNESS_MEMORY_BOUND
        self.stats = WitnessStoreStats()
        self._dirty = False
        # digest -> (record, fully_checked).  LRU front for the disk tier:
        # an interactive edit session re-reads the same ancestor witnesses
        # many times; records that validated once in this process skip the
        # unpickle on repeat lookups.
        self._memory: "OrderedDict[str, Tuple[WitnessRecord, bool]]" = OrderedDict()

    # ----------------------------------------------------------------- paths
    def path(self, digest: str) -> Path:
        return self.root / f"{digest}.pkl"

    def _meta_path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def __contains__(self, digest: str) -> bool:
        return self.path(digest).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.pkl"))

    # ----------------------------------------------------------------- write
    def put(
        self,
        proof: ProofNode,
        name: str = "",
        problem: Optional[ImplicitDefinitionProblem] = None,
        check: bool = True,
        components: Tuple[str, ...] = (),
    ) -> WitnessRecord:
        """Persist ``proof``; returns the stored record.

        ``check=True`` re-validates the tree through the independent checker
        before anything touches disk — the store only ever contains proofs
        that checked at write time (the read path re-checks regardless).
        """
        if check:
            check_proof(proof)
        payload = export_witness(proof, name=name, problem=problem, components=components)
        return self._store_payload(payload, checked=check)

    def import_payload(self, blob: bytes) -> Optional[WitnessRecord]:
        """Validate and adopt a serialized payload (CLI / HTTP import).

        Unlike :meth:`get`'s miss-only contract, an import is an explicit
        user action: a payload that does not validate raises
        :class:`~repro.errors.ProofError` instead of silently vanishing.
        """
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise ProofError(f"witness payload does not unpickle: {exc}") from exc
        record = self._validate_payload(payload, digest=None, source="import")
        if record is None:
            raise ProofError("witness payload failed validation (see log for the reason)")
        check_proof(record.proof)
        self._store_payload(
            export_witness(
                record.proof,
                name=record.name,
                problem=record.problem,
                components=record.components,
            ),
            checked=True,
        )
        return record

    def export_payload(self, digest: str) -> Optional[bytes]:
        """The raw serialized payload for ``digest`` (CLI / HTTP export)."""
        try:
            return self.path(digest).read_bytes()
        except OSError:
            return None

    def _store_payload(self, payload: dict, checked: bool = False) -> WitnessRecord:
        digest = payload["digest"]
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        summary = WitnessSummary(
            digest=digest,
            name=payload["name"],
            proof_size=proof_size(payload["proof"]),
            created=payload["created"],
            payload_bytes=len(blob),
            sequent=payload["sequent"],
        )
        _atomic_write_bytes(self.path(digest), blob)
        _atomic_write_bytes(
            self._meta_path(digest),
            (json.dumps(summary.as_dict(), indent=2) + "\n").encode(),
        )
        self.stats.stores += 1
        self._dirty = True
        record = WitnessRecord(
            digest=digest,
            name=payload["name"],
            proof=payload["proof"],
            created=payload["created"],
            problem=payload["problem"],
            components=tuple(payload.get("components", ())),
        )
        self._remember(record, checked=checked)
        return record

    def _remember(self, record: WitnessRecord, checked: bool) -> None:
        memory = self._memory
        previous = memory.get(record.digest)
        # Never downgrade a fully-checked entry to an unchecked one.
        memory[record.digest] = (record, checked or (previous is not None and previous[1]))
        memory.move_to_end(record.digest)
        while len(memory) > self.memory_bound:
            memory.popitem(last=False)

    # ------------------------------------------------------------------ read
    def get(self, digest: str, check: bool = True) -> Optional[WitnessRecord]:
        """The stored witness for ``digest``, or ``None`` as a cold fall-back.

        Every failure mode is a *miss* — logged, counted under
        ``repro_witness_misses_total{reason=...}``, and (for corrupt
        payloads) evicted so the next store rebuilds the slot cleanly.
        """
        cached = self._memory.get(digest)
        if cached is not None:
            record, fully_checked = cached
            if check and not fully_checked:
                try:
                    check_proof(record.proof)
                except ProofError as exc:
                    self._corrupt(digest, "invalid-proof", f"stored proof no longer checks: {exc}")
                    return None
                self._memory[digest] = (record, True)
            self._memory.move_to_end(digest)
            self.stats.hits += 1
            get_registry().counter(
                "repro_witness_hits_total", "Witness-store lookups served from disk"
            ).inc()
            return record
        try:
            blob = self.path(digest).read_bytes()
        except OSError:
            self._miss("absent")
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            self._corrupt(digest, "truncated", "payload does not unpickle")
            return None
        record = self._validate_payload(payload, digest=digest, source="disk")
        if record is None:
            return None
        if check:
            try:
                check_proof(record.proof)
            except ProofError as exc:
                self._corrupt(digest, "invalid-proof", f"stored proof no longer checks: {exc}")
                return None
        self._remember(record, checked=check)
        self.stats.hits += 1
        get_registry().counter(
            "repro_witness_hits_total", "Witness-store lookups served from disk"
        ).inc()
        return record

    def get_for_sequent(self, sequent: Sequent, check: bool = True) -> Optional[WitnessRecord]:
        """The stored witness proving exactly ``sequent``, if any."""
        return self.get(witness_digest(sequent), check=check)

    def _validate_payload(
        self, payload: object, digest: Optional[str], source: str
    ) -> Optional[WitnessRecord]:
        if not isinstance(payload, dict):
            self._corrupt(digest, "truncated", f"{source}: payload is not a dict")
            return None
        try:
            if payload["fingerprint"] != witness_fingerprint():
                self._corrupt(digest, "fingerprint", f"{source}: stale format fingerprint")
                return None
            proof = payload["proof"]
            sequent_text = payload["sequent"]
            claimed = payload["digest"]
            if not isinstance(proof, ProofNode):
                self._corrupt(digest, "truncated", f"{source}: payload proof is not a ProofNode")
                return None
            expected = hashlib.sha256(f"sequent={sequent_text}".encode("utf-8")).hexdigest()
            if claimed != expected or (digest is not None and claimed != digest):
                self._corrupt(digest, "digest", f"{source}: content address mismatch")
                return None
            if str(proof.sequent) != sequent_text:
                self._corrupt(digest, "digest", f"{source}: proof sequent skews from address")
                return None
            components = payload.get("components", ())
            if not (
                isinstance(components, tuple)
                and all(isinstance(item, str) for item in components)
            ):
                components = ()
            return WitnessRecord(
                digest=claimed,
                name=payload.get("name", ""),
                proof=proof,
                created=payload.get("created", 0.0),
                problem=payload.get("problem"),
                components=components,
            )
        except KeyError as exc:
            self._corrupt(digest, "truncated", f"{source}: payload missing field {exc}")
            return None

    def _miss(self, reason: str) -> None:
        self.stats.misses += 1
        get_registry().counter(
            "repro_witness_misses_total",
            "Witness-store lookups that fell back to cold synthesis",
            labelnames=("reason",),
        ).inc(reason=reason)

    def _corrupt(self, digest: Optional[str], reason: str, message: str) -> None:
        self.stats.invalid_payloads += 1
        _log.warning("witness %s rejected (%s): %s", digest or "<import>", reason, message)
        self._miss(reason)
        if digest is not None:
            self.delete(digest, count_eviction=False)

    # ------------------------------------------------------------- inventory
    def list(self) -> List[WitnessSummary]:
        """Sidecar metadata of every stored witness (newest first)."""
        summaries = []
        for meta_path in sorted(self.root.glob("*.json")):
            try:
                raw = json.loads(meta_path.read_text())
                summaries.append(WitnessSummary(**raw))
            except (OSError, ValueError, TypeError):
                continue
        summaries.sort(key=lambda summary: summary.created, reverse=True)
        return summaries

    def delete(self, digest: str, count_eviction: bool = True) -> bool:
        """Drop the payload and sidecar for ``digest``; True if anything went."""
        self._memory.pop(digest, None)
        removed = False
        for path in (self.path(digest), self._meta_path(digest)):
            try:
                path.unlink()
                removed = True
            except OSError:
                pass
        if removed and count_eviction:
            self.stats.evictions += 1
        return removed

    # ----------------------------------------------------------- maintenance
    def maintain(self) -> int:
        """Bound the tier (oldest witnesses evicted first); returns #evicted.

        Evictions are announced through the shared cache manifest exactly
        like result-tier evictions, so fleet peers holding warmed copies
        drop and re-warm.  Only runs after a store (``_dirty``) so warm
        traffic never pays the directory scan.
        """
        if not self._dirty:
            return 0
        self._dirty = False
        # Count sidecars by directory listing first: parsing every one of
        # them is only needed once the tier is actually over its bound.
        if not self.entry_bound or sum(1 for _ in self.root.glob("*.json")) <= self.entry_bound:
            return 0
        summaries = self.list()
        evicted = 0
        while len(summaries) - evicted > self.entry_bound:
            victim = summaries[len(summaries) - 1 - evicted]
            self.delete(victim.digest)
            evicted += 1
        if evicted and self.manifest is not None:
            self.manifest.bump(self.node_id)
        return evicted


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-then-rename (same contract as the result tier's writer)."""
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
