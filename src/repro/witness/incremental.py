"""Incremental resynthesis: seed proof search from stored witnesses.

The focused search's transposition table (:class:`repro.proofs.search.
SearchTables`) replays a stored success whenever it re-reaches a sequent it
has proved before.  This module populates that table *before* the search
starts:

* :func:`seed_search_tables` — given an ancestor witness and the edited
  problem, diff the two specifications (:mod:`repro.witness.diff`),
  **translate** the ancestor proof onto the new goal (rewrite every edited
  subtree — in plain, primed and dualized renderings — to its new version
  throughout sequents and rule metadata), re-check each translated inference
  with the Figure 3 constructors, and seed every subtree that still checks.
  The new search then pays only for the proof region the edit actually
  invalidated — re-synthesizing a tweaked spec is near-warm instead of cold.
* :func:`warm_tables_from_store` — fleet worker warm-up: seed a (process-
  shared) table from the newest stored witnesses on start, so sweep workers
  share ``SearchTables`` successes across processes via the disk tier.

Seeding is sound regardless of diff or translation precision: every table
entry is a proof tree re-validated node-by-node against exactly its key
sequent (:func:`repro.proofs.checker` machinery), so a replay can never
produce a wrong proof — a translation that lands outside the new search
space only costs table space, a missed one only costs warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import node as core
from repro.logic.formulas import Formula
from repro.logic.free_vars import substitute_many, substitute_term
from repro.logic.macros import negate
from repro.logic.terms import Term, Var
from repro.obs.metrics import get_registry
from repro.proofs import checker
from repro.proofs.prooftree import ProofNode, SequentRewriter
from repro.proofs.search import SearchTables
from repro.proofs.sequents import Sequent
from repro.specs.problems import ImplicitDefinitionProblem
from repro.witness.diff import diff_formulas, replace_subtrees
from repro.witness.store import WitnessRecord, WitnessStore, witness_digest

#: Default cap on witnesses replayed into a worker's table at warm-up.
DEFAULT_WARM_LIMIT = 64


@dataclass
class IncrementalSeed:
    """Provenance of one table-seeding pass (reported in stage details)."""

    ancestor_digest: str
    ancestor_name: str
    diff_sites: int
    total_nodes: int
    seeded: int
    #: Witness records consulted (1 + any component witnesses of the
    #: Appendix G product recursion, see :func:`seed_incremental`).
    records: int = 1

    def as_detail(self) -> Dict[str, object]:
        return {
            "ancestor": self.ancestor_digest,
            "ancestor_name": self.ancestor_name,
            "diff_sites": self.diff_sites,
            "ancestor_nodes": self.total_nodes,
            "seeded": self.seeded,
            "witness_records": self.records,
        }


def _edit_mapping(
    record: WitnessRecord, problem: ImplicitDefinitionProblem
) -> Optional[Tuple[int, Dict[core.Node, core.Node]]]:
    """``(site_count, old-subtree → new-subtree)`` across every rendering.

    The determinacy sequent mentions the specification twice — plain and
    primed (``o``/``ā`` renamed ``o_p``/``ā_p``) — and *negated* (the
    one-sided reading ``⊢ ¬φ, ¬φ', o ≡ o'`` dualizes every hypothesis), so
    each edited subtree must be rewritten in up to four renderings.  ``None``
    means the diff cannot be computed (no ancestor problem travelled with the
    witness).
    """
    ancestor = record.problem
    if ancestor is None:
        return None
    diff = diff_formulas(ancestor.phi, problem.phi)
    prime: Dict[Var, Term] = {
        ancestor.output: Var(ancestor.output.name + "_p", ancestor.output.typ)
    }
    for aux in ancestor.auxiliaries:
        prime[aux] = Var(aux.name + "_p", aux.typ)
    mapping: Dict[core.Node, core.Node] = {}
    for site in diff.sites:
        if isinstance(site.old, Formula) and isinstance(site.new, Formula):
            mapping[site.old] = site.new
            mapping[negate(site.old)] = negate(site.new)
            old_p = substitute_many(site.old, prime)
            new_p = substitute_many(site.new, prime)
            mapping[old_p] = new_p
            mapping[negate(old_p)] = negate(new_p)
        elif isinstance(site.old, Term) and isinstance(site.new, Term):
            mapping[site.old] = site.new
            mapping[substitute_term(site.old, prime)] = substitute_term(site.new, prime)
        # Mixed Formula/Term sites (a rewrite across syntactic categories)
        # have no sound translation; leaving them out of the mapping simply
        # leaves those proof regions untranslated — and unseedable.
    return len(diff.sites), mapping


class _Translation:
    """Rewrites proof parts under one edit ``mapping`` (old → new subtree).

    ``cache`` memoizes :func:`~repro.witness.diff.replace_subtrees` by object
    identity; sequents go through a :class:`~repro.proofs.prooftree.
    SequentRewriter`, which rewrites each distinct member once per proof.
    """

    def __init__(self, mapping: Dict[core.Node, core.Node]) -> None:
        self.mapping = mapping
        self.cache: Dict[int, core.Node] = {}
        self.sequents = SequentRewriter(self.node)

    def node(self, node: core.Node) -> core.Node:
        return replace_subtrees(node, self.mapping, self.cache)

    def value(self, value: object) -> object:
        if isinstance(value, core.Node):
            return self.node(value)
        if isinstance(value, tuple):
            items = tuple(self.value(item) for item in value)
            # Preserve identity for untouched tuples so callers can detect
            # "nothing changed" with an ``is`` check.
            return value if all(a is b for a, b in zip(items, value)) else items
        return value

    def meta(self, meta: Dict[str, object]) -> Dict[str, object]:
        return {key: self.value(value) for key, value in meta.items()}


def _same_objects(new: Dict[str, object], old: Dict[str, object]) -> bool:
    return all(new[key] is value for key, value in old.items())


def _translate_proof(proof: ProofNode, translation: _Translation) -> ProofNode:
    """Mechanically rewrite ``proof`` under the edit (no validation).

    Identity-preserving: subtrees the mapping never touches come back as the
    same objects, so an edit localized to one spec conjunct rebuilds only the
    proof spine that mentions it.
    """
    translation.sequents.learn(proof)

    def visit(node: ProofNode) -> ProofNode:
        premises = tuple(visit(premise) for premise in node.premises)
        sequent = translation.sequents.sequent(node.sequent)
        meta = translation.meta(node.meta)
        if (
            sequent is node.sequent
            and _same_objects(meta, node.meta)
            and all(a is b for a, b in zip(premises, node.premises))
        ):
            return node
        return ProofNode(node.rule, sequent, premises, meta)

    return visit(proof)


def _translate_and_seed(
    proof: ProofNode,
    translation: _Translation,
    successes: Dict[Sequent, ProofNode],
) -> Tuple[int, int]:
    """Translate ``proof`` onto the edited spec and seed the sound subtrees.

    Post-order: each node is rebuilt with translated sequent/metadata/
    premises and re-validated as a rule instance; a node is *sound* — and
    seeded — only when its own inference checks **and** every premise
    subtree was sound, so every table entry is a fully checked proof of its
    key sequent.  Returns ``(total_nodes, seeded)``.
    """
    translation.sequents.learn(proof)
    total = 0
    seeded = 0

    def visit(node: ProofNode) -> Tuple[Optional[ProofNode], bool]:
        nonlocal total, seeded
        total += 1
        premises: List[ProofNode] = []
        all_sound = True
        for premise in node.premises:
            translated, sound = visit(premise)
            all_sound = all_sound and sound and translated is not None
            premises.append(translated if translated is not None else premise)
        try:
            sequent = translation.sequents.sequent(node.sequent)
            meta = translation.meta(node.meta)
            if (
                sequent is node.sequent
                and _same_objects(meta, node.meta)
                and all(a is b for a, b in zip(premises, node.premises))
            ):
                # Untouched by the edit: the node was already validated when
                # the witness was imported/loaded, so skip the re-check.
                candidate = node
            else:
                candidate = ProofNode(node.rule, sequent, tuple(premises), meta)
                checker._check_node(candidate)
        except Exception:
            # The edit invalidated this inference (or translation produced
            # junk) — the region is re-derived by the live search instead.
            return None, False
        if all_sound:
            if candidate.sequent not in successes:
                successes[candidate.sequent] = candidate
                seeded += 1
            return candidate, True
        return candidate, False

    visit(proof)
    return total, seeded


def seed_search_tables(
    tables: SearchTables,
    record: WitnessRecord,
    problem: Optional[ImplicitDefinitionProblem] = None,
) -> IncrementalSeed:
    """Map the ancestor witness's unaffected subproofs into ``tables``.

    With ``problem`` (the edited spec), the ancestor proof is translated
    onto the new goal and only subtrees that still check are seeded; without
    it — or when the specs are structurally identical — every subproof is
    seeded verbatim (warm-up mode).
    """
    sites = 0
    mapping: Optional[Dict[core.Node, core.Node]] = None
    if problem is not None:
        edit = _edit_mapping(record, problem)
        if edit is not None:
            sites, mapping = edit
    successes = tables.successes
    if mapping:
        total, seeded = _translate_and_seed(record.proof, _Translation(mapping), successes)
    else:
        # Identical specs (or no ancestor problem to diff against): the
        # stored proof applies verbatim.
        total = 0
        seeded = 0
        stack = [record.proof]
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.premises)
            if node.sequent not in successes:
                successes[node.sequent] = node
                seeded += 1
    if seeded:
        get_registry().counter(
            "repro_witness_subtree_reuse_total",
            "Ancestor proof subtrees mapped into a fresh search's tables",
        ).inc(seeded)
    return IncrementalSeed(
        ancestor_digest=record.digest,
        ancestor_name=record.name,
        diff_sites=sites,
        total_nodes=total,
        seeded=seeded,
    )


def seed_incremental(
    store: WitnessStore,
    tables: SearchTables,
    record: WitnessRecord,
    problem: ImplicitDefinitionProblem,
    optimistic: bool = True,
) -> IncrementalSeed:
    """Seed ``tables`` from the ancestor witness *and* its component witnesses.

    Product-typed outputs are synthesized by the Appendix G recursion: each
    component gets its own determinacy proof, found by a search the top-level
    witness cannot seed (the component sequents substitute the output by a
    pair and β-normalize, so they share no subtrees with the top-level goal).
    The pipeline stores those component proofs as witnesses in their own
    right, each carrying the digests of *its* components; here we walk that
    digest tree alongside the deterministic decomposition of the edited
    problem (:func:`repro.synthesis.implicit_to_explicit.product_subproblems`)
    and seed every (ancestor witness, edited sub-problem) pair — so an
    incremental rerun skips the component searches too, which dominate cold
    synthesis time for product towers.

    ``optimistic=True`` translates each ancestor proof mechanically and
    seeds only the translated root: the search probes exactly the goal
    sequents, and a translation the edit actually invalidated is caught by
    the synthesis-time proof validation and absorbed by the pipeline's cold
    fall-back, never trusted.  ``optimistic=False`` pays a per-node re-check
    and seeds every still-sound subtree instead — the right trade when the
    caller cannot fall back (e.g. ``validate_proof`` is off).
    """
    from repro.nr.types import ProdType
    from repro.synthesis.implicit_to_explicit import product_subproblems

    seed = IncrementalSeed(
        ancestor_digest=record.digest,
        ancestor_name=record.name,
        diff_sites=0,
        total_nodes=0,
        seeded=0,
        records=0,
    )
    successes = tables.successes
    # Both members of a component pair share their φ, so their edit mappings
    # (and translations, which depend only on the mapping) are shared too.
    translations: Dict[tuple, Tuple[int, Optional[_Translation]]] = {}
    worklist = [(record, problem)]
    while worklist:
        rec, prob = worklist.pop()
        seed.records += 1
        seed.total_nodes += rec.proof_size
        ancestor = rec.problem
        sites, translation = 0, None
        if ancestor is not None:
            key = (ancestor.phi, prob.phi)
            entry = translations.get(key)
            if entry is None:
                sites, mapping = _edit_mapping(rec, prob) or (0, {})
                entry = (sites, _Translation(mapping) if mapping else None)
                translations[key] = entry
            sites, translation = entry
        if rec is record:
            seed.diff_sites = sites
        if translation is None:
            # Spec unchanged (or unknown): the stored proof applies verbatim.
            if rec.sequent not in successes:
                successes[rec.sequent] = rec.proof
                seed.seeded += 1
        elif optimistic:
            try:
                translated = _translate_proof(rec.proof, translation)
            except Exception:
                translated = None
            if translated is not None:
                if translated.sequent not in successes:
                    successes[translated.sequent] = translated
                    seed.seeded += 1
            else:
                _, seeded = _translate_and_seed(rec.proof, translation, successes)
                seed.seeded += seeded
        else:
            _, seeded = _translate_and_seed(rec.proof, translation, successes)
            seed.seeded += seeded
        # Walk into stored component witnesses (product outputs only).
        if ancestor is None or not isinstance(prob.output.typ, ProdType):
            continue
        edited_subs = product_subproblems(prob)
        if rec.components:
            pairs = list(zip(rec.components, edited_subs))
        elif isinstance(ancestor.output.typ, ProdType):
            # Pre-components payloads: recompute the ancestor goals instead.
            pairs = [
                (witness_digest(ancestor_sub.determinacy_goal()), edited_sub)
                for ancestor_sub, edited_sub in zip(
                    product_subproblems(ancestor), edited_subs
                )
            ]
        else:
            continue
        for digest, edited_sub in pairs:
            if not digest or digest not in store:
                continue
            # ``check=False``: the payload's fingerprint/address still
            # validate, and anything seeded from it is re-validated at
            # synthesis time (or re-checked per node when not optimistic);
            # the pipeline's cold-fallback net covers the rest.
            sub_record = store.get(digest, check=False)
            if sub_record is None:
                continue
            worklist.append((sub_record, edited_sub))
    if seed.seeded:
        get_registry().counter(
            "repro_witness_subtree_reuse_total",
            "Ancestor proof subtrees mapped into a fresh search's tables",
        ).inc(seed.seeded)
    return seed


def warm_tables_from_store(
    store: WitnessStore, tables: SearchTables, limit: int = DEFAULT_WARM_LIMIT
) -> int:
    """Seed ``tables`` from the newest stored witnesses; returns #sequents.

    Worker processes call this once on start so the fleet's accumulated
    proof work is shared through the disk tier: a worker assigned a problem
    any peer has proved (or any subproblem whose sequents overlap) starts
    with those successes already in its transposition table.
    """
    warmed = 0
    for summary in store.list()[:limit]:
        record = store.get(summary.digest)
        if record is None:
            continue
        warmed += seed_search_tables(tables, record).seeded
    if warmed:
        get_registry().counter(
            "repro_witness_warm_seeded_total",
            "Sequents seeded into worker transposition tables at warm-up",
        ).inc(warmed)
    return warmed
