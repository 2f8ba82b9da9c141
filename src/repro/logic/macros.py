"""Macro layer over core Δ0 formulas (Section 3 of the paper).

Negation, implication and biconditional are *defined* connectives (negation
dualizes every constructor).  Equality, inclusion and membership "up to
extensionality" are defined by induction on the type::

    t ∈̂_T u        :=  ∃z' ∈ u . t ≡_T z'
    t ⊆_T u        :=  ∀z ∈ t . z ∈̂_T u
    t ≡_Set(T) u   :=  t ⊆_T u ∧ u ⊆_T t
    t ≡_Unit u     :=  ⊤
    t ≡_𝔘 u        :=  t =𝔘 u
    t ≡_T1×T2 u    :=  π1(t) ≡_T1 π1(u) ∧ π2(t) ≡_T2 π2(u)

All macros produce plain Δ0 formulas (never primitive membership literals).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.core import node as core
from repro.errors import FormulaError, TypeMismatchError
from repro.logic.formulas import (
    And,
    Bottom,
    EqUr,
    Exists,
    Forall,
    Formula,
    Member,
    NeqUr,
    NotMember,
    Or,
    Top,
)
from repro.logic.free_vars import fresh_var
from repro.logic.terms import Proj, Term, term_type, term_vars
from repro.nr.types import ProdType, SetType, Type, UnitType, UrType


def negate(formula: Formula) -> Formula:
    """Negation as a macro: dualize every connective (Section 3).

    Runs as a single bottom-up fold on the core engine (iterative, so deep
    formulas do not overflow the stack); terms are left untouched.  The
    result is memoized on the root (``_neg``): synthesis negates the same
    specification for the goal, every partition and answer collection.
    """
    cached = formula.__dict__.get("_neg")
    if cached is None:
        cached = core.fold(formula, _negate_combine)
        object.__setattr__(formula, "_neg", cached)
    return cached


def _negate_combine(node: core.Node, negated: tuple) -> core.Node:
    if isinstance(node, Term):
        return node
    if isinstance(node, EqUr):
        return NeqUr(node.left, node.right)
    if isinstance(node, NeqUr):
        return EqUr(node.left, node.right)
    if isinstance(node, Member):
        return NotMember(node.elem, node.collection)
    if isinstance(node, NotMember):
        return Member(node.elem, node.collection)
    if isinstance(node, Top):
        return Bottom()
    if isinstance(node, Bottom):
        return Top()
    if isinstance(node, And):
        return Or(negated[0], negated[1])
    if isinstance(node, Or):
        return And(negated[0], negated[1])
    if isinstance(node, Forall):
        # children are (bound, body): the bound term folds to itself.
        return Exists(node.var, negated[0], negated[1])
    if isinstance(node, Exists):
        return Forall(node.var, negated[0], negated[1])
    raise FormulaError(f"unknown formula {node!r}")


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """``antecedent → consequent`` as ``¬antecedent ∨ consequent``."""
    return Or(negate(antecedent), consequent)


def iff(left: Formula, right: Formula) -> Formula:
    """``left ↔ right`` as ``(left → right) ∧ (right → left)``."""
    return And(implies(left, right), implies(right, left))


def _avoid_vars(*terms: Term) -> set:
    avoid = set()
    for term in terms:
        avoid |= term_vars(term)
    return avoid


@lru_cache(maxsize=1024)
def equivalent(left: Term, right: Term, typ: Optional[Type] = None) -> Formula:
    """Equality up to extensionality ``left ≡_T right`` (a Δ0 macro).

    A pure function of its (hashable, frozen) arguments — bound variables
    are named from the operands only — so results are memoized: every
    determinacy goal rebuilds ``o ≡ o'``, which for nested output types
    unfolds into dozens of nodes.
    """
    if typ is None:
        typ = term_type(left)
    right_type = term_type(right)
    if term_type(left) != typ or right_type != typ:
        raise TypeMismatchError(
            f"equivalent: operand types {term_type(left)} / {right_type} do not match {typ}"
        )
    if isinstance(typ, UnitType):
        return Top()
    if isinstance(typ, UrType):
        return EqUr(left, right)
    if isinstance(typ, ProdType):
        return And(
            equivalent(Proj(1, left), Proj(1, right), typ.left),
            equivalent(Proj(2, left), Proj(2, right), typ.right),
        )
    if isinstance(typ, SetType):
        return And(subset_of(left, right, typ), subset_of(right, left, typ))
    raise TypeMismatchError(f"unknown type {typ!r}")


def not_equivalent(left: Term, right: Term, typ: Optional[Type] = None) -> Formula:
    """``¬(left ≡_T right)`` as a Δ0 macro."""
    return negate(equivalent(left, right, typ))


def member_hat(elem: Term, collection: Term) -> Formula:
    """Membership up to extensionality ``elem ∈̂_T collection`` (Δ0 macro)."""
    coll_type = term_type(collection)
    if not isinstance(coll_type, SetType):
        raise TypeMismatchError(f"member_hat: {collection} has non-set type {coll_type}")
    elem_type = coll_type.elem
    if term_type(elem) != elem_type:
        raise TypeMismatchError(
            f"member_hat: element type {term_type(elem)} does not match {elem_type}"
        )
    witness = fresh_var("zh", elem_type, _avoid_vars(elem, collection))
    return Exists(witness, collection, equivalent(elem, witness, elem_type))


def not_member_hat(elem: Term, collection: Term) -> Formula:
    """``¬(elem ∈̂ collection)`` as a Δ0 macro."""
    return negate(member_hat(elem, collection))


def subset_of(left: Term, right: Term, typ: Optional[Type] = None) -> Formula:
    """Inclusion up to extensionality ``left ⊆ right`` for set-typed terms."""
    if typ is None:
        typ = term_type(left)
    if not isinstance(typ, SetType):
        raise TypeMismatchError(f"subset_of: type {typ} is not a set type")
    if term_type(left) != typ or term_type(right) != typ:
        raise TypeMismatchError("subset_of: operand types do not match")
    element = fresh_var("zs", typ.elem, _avoid_vars(left, right))
    return Forall(element, left, member_hat(element, right))


def member_literal(elem: Term, collection: Term) -> Member:
    """A *primitive* membership literal (extended Δ0), type-checked."""
    coll_type = term_type(collection)
    if not isinstance(coll_type, SetType) or term_type(elem) != coll_type.elem:
        raise TypeMismatchError(
            f"member_literal: {elem} : {term_type(elem)} vs {collection} : {coll_type}"
        )
    return Member(elem, collection)
