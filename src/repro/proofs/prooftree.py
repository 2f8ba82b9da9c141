"""Proof trees.

A :class:`ProofNode` records the rule name, the conclusion sequent, the
premises (child proof nodes, ordered) and a ``meta`` mapping with the
rule-specific data (principal formula, instantiation witnesses, fresh
variables, ...).  The metadata lets proof transformations and the synthesis
inductions dispatch on the rule without re-deriving it; the independent
checker (:mod:`repro.proofs.checker`) re-validates every node against the
calculus regardless of what the metadata claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Mapping, Tuple

from repro.proofs.sequents import Sequent

#: Rule names of the focused calculus (Figure 3) plus the explicit structural
#: ``weaken`` rule (the reification of admissible Lemma 12 used by proof search).
FOCUSED_RULES = (
    "eq",        # =   axiom  ⊢ t = t, Δ
    "top",       # ⊤   axiom  ⊢ ⊤, Δ
    "neq",       # ≠   congruence on atomic formulas
    "and",       # ∧
    "or",        # ∨
    "forall",    # ∀
    "exists",    # ∃   (maximal specialization w.r.t. Θ)
    "prod_eta",  # ×η
    "prod_beta", # ×β
    "weaken",    # structural weakening (admissible, Lemma 12)
)


@dataclass(frozen=True)
class ProofNode:
    """One node of a proof tree: conclusion, rule, premises, metadata."""

    rule: str
    sequent: Sequent
    premises: Tuple["ProofNode", ...] = ()
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "meta", dict(self.meta))

    def premise(self, index: int = 0) -> "ProofNode":
        return self.premises[index]

    def __str__(self) -> str:
        return render_proof(self)


def proof_size(node: ProofNode) -> int:
    """Number of nodes in the proof tree."""
    return 1 + sum(proof_size(premise) for premise in node.premises)


def proof_depth(node: ProofNode) -> int:
    """Height of the proof tree."""
    if not node.premises:
        return 1
    return 1 + max(proof_depth(premise) for premise in node.premises)


def rules_used(node: ProofNode) -> Dict[str, int]:
    """Histogram of rule names used in the proof."""
    counts: Dict[str, int] = {}

    def visit(current: ProofNode) -> None:
        counts[current.rule] = counts.get(current.rule, 0) + 1
        for premise in current.premises:
            visit(premise)

    visit(node)
    return counts


def iter_nodes(node: ProofNode) -> Iterator[ProofNode]:
    """Pre-order traversal of all proof nodes."""
    yield node
    for premise in node.premises:
        yield from iter_nodes(premise)


class SequentRewriter:
    """Rewrites the sequents of proof trees under one member-level ``rewrite``.

    ``rewrite`` maps a sequent member (∈-atom or formula) to its image and
    returns the member itself when nothing changes.  The sequents of a proof
    share most of their members, so :meth:`learn` rewrites each distinct
    member once and records the ones that change; a member set is then
    rewritten by one intersection with that record plus a rebuild of the few
    members it hits.  Frozenset intersection, difference and union reuse the
    hashes the sets already store, so unchanged members are neither
    re-hashed nor visited in Python.
    """

    def __init__(self, rewrite: Callable[[Any], Any]) -> None:
        self.rewrite = rewrite
        self._stale: FrozenSet[Any] = frozenset()
        self._learned: FrozenSet[Any] = frozenset()
        self._images: Dict[int, Any] = {}

    def learn(self, proof: ProofNode) -> None:
        """Rewrite every sequent member of ``proof`` not seen before."""
        member_sets: List[FrozenSet[Any]] = []
        stack = [proof]
        while stack:
            node = stack.pop()
            member_sets.append(node.sequent.theta)
            member_sets.append(node.sequent.delta)
            stack.extend(node.premises)
        fresh = frozenset().union(*member_sets) - self._learned
        stale = []
        for member in fresh:
            try:
                image = self.rewrite(member)
            except Exception:
                # Raised again when a set holding the member is rewritten,
                # so the failure stays with the sequents that mention it.
                stale.append(member)
                continue
            if image is not member:
                stale.append(member)
                self._images[id(member)] = image
        self._stale |= frozenset(stale)
        self._learned |= fresh

    def members(self, members: FrozenSet[Any]) -> FrozenSet[Any]:
        """``members`` rewritten; the same object when nothing changes."""
        hit = members & self._stale
        if not hit:
            return members
        images = self._images
        rebuilt = []
        for member in hit:
            image = images.get(id(member))
            rebuilt.append(self.rewrite(member) if image is None else image)
        return (members - hit).union(rebuilt)

    def sequent(self, sequent: Sequent) -> Sequent:
        """``sequent`` rewritten; the same object when nothing changes.

        Built directly (no ``Sequent.of`` validation): callers re-check
        rewritten proofs before trusting them.
        """
        theta = self.members(sequent.theta)
        delta = self.members(sequent.delta)
        if theta is sequent.theta and delta is sequent.delta:
            return sequent
        return Sequent(theta, delta)


def render_proof(node: ProofNode, indent: int = 0) -> str:
    """A readable indented rendering of the proof tree."""
    pad = "  " * indent
    lines = [f"{pad}[{node.rule}] {node.sequent}"]
    for premise in node.premises:
        lines.append(render_proof(premise, indent + 1))
    return "\n".join(lines)
