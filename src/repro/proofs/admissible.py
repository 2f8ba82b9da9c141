"""Admissible-rule proof transformations (Appendix F.1, Lemmas 12–16).

These operate on focused proof trees and return focused proof trees; every
output is checkable by :mod:`repro.proofs.checker`.  The transformations
implemented here are the ones the synthesis pipeline needs:

* :func:`weaken_proof`            — Lemma 12 (structural weakening, via the
  explicit ``weaken`` rule).
* :func:`and_inversion`           — Lemma 13 (invertibility of ∧): from a
  proof of ``Θ ⊢ φ1 ∧ φ2, Δ`` obtain a proof of ``Θ ⊢ φi, Δ``.
* :func:`forall_inversion`        — Lemma 14 (invertibility of ∀): from a
  proof of ``Θ ⊢ ∀x∈t.φ, Δ`` obtain a proof of ``Θ, z∈t ⊢ φ[z/x], Δ``.
* :func:`substitute_proof`        — Lemma 16 (substitution of terms for free
  variables throughout a proof).
* :func:`exists_conjunct_projection`  — the "project a conjunct under an
  existential block" transformation used by the product case of Theorem 10
  (an instance of the routine admissible rules referred to in Appendix F).

Proof-search note: rules whose side condition requires an all-EL context can
never fire while the (AL, non-atomic) target formula of an inversion is still
present, so the inversions only ever traverse invertible rules and ``weaken``
— which is what makes these transformations linear-time walks.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.errors import ProofError
from repro.logic.formulas import And, Exists, Forall, Formula, Member
from repro.logic.free_vars import substitute, substitute_many, substitute_term
from repro.logic.terms import Term, Var
from repro.proofs import focused
from repro.proofs.prooftree import ProofNode, SequentRewriter
from repro.proofs.sequents import Sequent


# --------------------------------------------------------------------- weaken
def weaken_proof(proof: ProofNode, extra_theta=(), extra_delta=()) -> ProofNode:
    """Weaken the conclusion of ``proof`` with extra ∈-atoms / formulas (Lemma 12)."""
    target = proof.sequent.with_theta(*extra_theta).with_delta(*extra_delta)
    if target == proof.sequent:
        return proof
    return focused.make_weaken(target, proof)


# ------------------------------------------------------------- ∧ invertibility
def and_inversion(proof: ProofNode, target: And, which: int) -> ProofNode:
    """From a proof of ``Θ ⊢ target, Δ`` build a proof of ``Θ ⊢ target_i, Δ`` (Lemma 13)."""
    if which not in (1, 2):
        raise ProofError("which must be 1 or 2")
    replacement = target.left if which == 1 else target.right
    return _replace_formula_walk(proof, target, replacement, _AndInversionHandlers(which))


class _AndInversionHandlers:
    def __init__(self, which: int) -> None:
        self.which = which

    def handles(self, node: ProofNode, target: Formula) -> bool:
        return node.rule == "and" and node.meta.get("principal") == target

    def transform(self, node: ProofNode, target: Formula, replacement: Formula) -> ProofNode:
        return node.premises[self.which - 1]


# ------------------------------------------------------------- ∀ invertibility
def forall_inversion(proof: ProofNode, target: Forall, fresh: Var) -> ProofNode:
    """From a proof of ``Θ ⊢ ∀x∈t.φ, Δ`` build ``Θ, fresh∈t ⊢ φ[fresh/x], Δ`` (Lemma 14)."""
    replacement = substitute(target.body, target.var, fresh)
    new_atom = Member(fresh, target.bound)
    return _replace_formula_walk(
        proof, target, replacement, _ForallInversionHandlers(fresh), extra_theta=(new_atom,)
    )


class _ForallInversionHandlers:
    def __init__(self, fresh: Var) -> None:
        self.fresh = fresh

    def handles(self, node: ProofNode, target: Formula) -> bool:
        return node.rule == "forall" and node.meta.get("principal") == target

    def transform(self, node: ProofNode, target: Forall, replacement: Formula) -> ProofNode:
        original_fresh: Var = node.meta["fresh"]
        if original_fresh == self.fresh:
            return node.premises[0]
        return substitute_proof(node.premises[0], {original_fresh: self.fresh})


# -------------------------------------------- projecting a conjunct under an ∃
def exists_conjunct_projection(proof: ProofNode, target: Exists, which: int) -> ProofNode:
    """From a proof of ``Θ ⊢ ∃x̄∈t̄.(A ∧ B), Δ`` build ``Θ ⊢ ∃x̄∈t̄.A, Δ`` (or B).

    Used by the product case of Theorem 10 to split an equivalence of pairs
    into its component equivalences.
    """
    if which not in (1, 2):
        raise ProofError("which must be 1 or 2")
    projection = _project_exists(target, which)
    targets = {target: projection}
    return _project_walk(proof, targets, which)


def _project_exists(formula: Formula, which: int) -> Formula:
    if isinstance(formula, Exists):
        return Exists(formula.var, formula.bound, _project_exists(formula.body, which))
    if isinstance(formula, And):
        return formula.left if which == 1 else formula.right
    raise ProofError(f"formula {formula} is not an existential block over a conjunction")


def _project_walk(node: ProofNode, targets: Dict[Formula, Formula], which: int) -> ProofNode:
    sequent = node.sequent
    present = [t for t in targets if t in sequent.delta]
    if not present:
        return node
    new_sequent = Sequent(
        sequent.theta, frozenset(targets.get(f, f) for f in sequent.delta)
    )
    rule = node.rule
    meta = node.meta
    if rule == "and" and meta.get("principal") in targets and isinstance(meta.get("principal"), And):
        # The conjunction being projected: keep only the chosen branch.
        principal: And = meta["principal"]
        chosen = node.premises[which - 1]
        transformed = _project_walk(chosen, targets, which)
        # The chosen premise proves Θ ⊢ (Δ \ {A∧B}) ∪ {A}, which is the
        # projected sequent (possibly after projecting remaining targets).
        return transformed
    if rule == "exists" and meta.get("principal") in targets:
        principal = meta["principal"]
        witnesses = meta["witnesses"]
        specialized = meta["specialized"]
        new_principal = targets[principal]
        new_specialized = focused.specialize(new_principal, witnesses)
        inner_targets = dict(targets)
        if isinstance(specialized, (Exists, And)):
            inner_targets[specialized] = (
                _project_exists(specialized, which) if isinstance(specialized, Exists) else new_specialized
            )
        premise = _project_walk(node.premises[0], inner_targets, which)
        return focused.make_exists(new_sequent, new_principal, witnesses, premise, require_maximal=False)
    # generic reconstruction
    return _rebuild(node, new_sequent, lambda child: _project_walk(child, targets, which), targets)


# -------------------------------------------------------------- substitution
def substitute_proof(proof: ProofNode, mapping: Mapping[Var, Term]) -> ProofNode:
    """Apply a variable substitution to every sequent of a proof (Lemma 16).

    Intended for renaming fresh variables or instantiating free variables by
    terms that do not clash with any bound/fresh variable of the proof; the
    caller is responsible for freshness (the checker will reject the result
    otherwise).
    """
    mapping = dict(mapping)

    def sub_formula(formula: Formula) -> Formula:
        return substitute_many(formula, mapping)

    def sub_term(term: Term) -> Term:
        return substitute_term(term, mapping)

    sequents = SequentRewriter(sub_formula)
    sequents.learn(proof)

    def walk(node: ProofNode) -> ProofNode:
        sequent = sequents.sequent(node.sequent)
        meta = dict(node.meta)
        for key in ("principal", "source", "target", "neq", "specialized"):
            if key in meta and isinstance(meta[key], Formula):
                meta[key] = sub_formula(meta[key])
        if "witnesses" in meta:
            meta["witnesses"] = tuple(sub_term(w) for w in meta["witnesses"])
        if "fresh" in meta:
            fresh = meta["fresh"]
            if isinstance(fresh, Var):
                meta["fresh"] = mapping.get(fresh, fresh)
            elif isinstance(fresh, tuple):
                meta["fresh"] = tuple(mapping.get(v, v) for v in fresh)
        if "var" in meta and isinstance(meta["var"], Var):
            meta["var"] = mapping.get(meta["var"], meta["var"])
        if "pair" in meta:
            meta["pair"] = sub_term(meta["pair"])
        premises = tuple(walk(p) for p in node.premises)
        return ProofNode(node.rule, sequent, premises, meta)

    return walk(proof)


# ------------------------------------------------------------------ internals
def _replace_formula_walk(
    node: ProofNode,
    target: Formula,
    replacement: Formula,
    handlers,
    extra_theta: Tuple[Member, ...] = (),
) -> ProofNode:
    """Replace ``target`` by ``replacement`` (adding ``extra_theta``) throughout
    the proof, anchoring at the rule node that ``handlers`` recognizes."""
    sequent = node.sequent
    if target not in sequent.delta:
        # The target was already removed (e.g. by weakening); just weaken the
        # existing subproof into the enlarged context if needed.
        if extra_theta:
            return weaken_proof(node, extra_theta=extra_theta)
        return node
    if handlers.handles(node, target):
        inner = handlers.transform(node, target, replacement)
        if extra_theta and not set(extra_theta) <= inner.sequent.theta:
            inner = weaken_proof(inner, extra_theta=extra_theta)
        return inner
    new_delta = sequent.delta.difference((target,)).union((replacement,))
    new_sequent = Sequent(sequent.theta.union(extra_theta), new_delta)
    return _rebuild(
        node,
        new_sequent,
        lambda child: _replace_formula_walk(child, target, replacement, handlers, extra_theta),
        {target: replacement},
    )


def _rebuild(node: ProofNode, new_sequent: Sequent, transform_child, targets: Dict[Formula, Formula]) -> ProofNode:
    """Re-apply the rule of ``node`` with transformed premises and conclusion."""
    rule = node.rule
    meta = dict(node.meta)
    premises = tuple(transform_child(p) for p in node.premises)
    if rule == "eq":
        return focused.make_eq_axiom(new_sequent, meta["principal"])
    if rule == "top":
        return focused.make_top_axiom(new_sequent)
    if rule == "weaken":
        return focused.make_weaken(new_sequent, premises[0])
    if rule == "or":
        return focused.make_or(new_sequent, meta["principal"], premises[0])
    if rule == "and":
        return focused.make_and(new_sequent, meta["principal"], premises[0], premises[1])
    if rule == "forall":
        return focused.make_forall(new_sequent, meta["principal"], meta["fresh"], premises[0])
    if rule == "exists":
        return focused.make_exists(
            new_sequent, meta["principal"], meta["witnesses"], premises[0],
            require_maximal=not meta.get("partial", False),
        )
    if rule == "neq":
        return focused.make_neq(new_sequent, meta["neq"], meta["source"], meta["target"], premises[0])
    if rule == "prod_eta":
        fresh1, fresh2 = meta["fresh"]
        return focused.make_prod_eta(new_sequent, meta["var"], fresh1, fresh2, premises[0])
    if rule == "prod_beta":
        return focused.make_prod_beta(new_sequent, meta["pair"], meta["index"], premises[0])
    raise ProofError(f"cannot rebuild unknown rule {rule!r}")
