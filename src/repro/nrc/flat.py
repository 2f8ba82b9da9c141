"""Flat relations and a small relational-algebra substrate.

The paper's Section 4 derives the Segoufin–Vianu theorem for relational
algebra from the nested result using the *conservativity* of NRC over
relational algebra for flat-to-flat transformations.  This module provides the
flat side of that picture:

* recognizing flat types (sets of tuples of Ur-elements);
* a minimal relational algebra AST (``RelVar``, ``Select``, ``Project``,
  ``Product``, ``RAUnion``, ``RADiff``) with an evaluator over flat
  ``SetValue`` relations;
* a translation of relational algebra into NRC (``ra_to_nrc``), which is the
  direction needed to build flat examples and to exercise Corollary 3 on
  classical view-rewriting instances.

The converse translation (NRC → relational algebra on flat types) is the
content of the conservativity theorems of Paredaens–Van Gucht / Wong / Van den
Bussche cited by the paper; we do not re-prove it here — flat outputs of the
synthesizer are validated semantically instead (see
ARCHITECTURE.md, "Documented deviations and limitations").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import TypeMismatchError
from repro.nr.types import SetType, Type, UrType, set_of, tuple_type, UR
from repro.nr.values import PairValue, SetValue, UrValue, Value
from repro.nrc.expr import NBigUnion, NEmpty, NRCExpr, NSingleton, NUnion, NDiff, NVar
from repro.nrc.macros import cond_set, eq_expr, tuple_expr, tuple_proj


def is_flat_relation_type(typ: Type) -> bool:
    """True iff ``typ`` is ``Set(Ur × ... × Ur)`` (or ``Set(Ur)``)."""
    if not isinstance(typ, SetType):
        return False
    return _is_ur_tuple(typ.elem)


def _is_ur_tuple(typ: Type) -> bool:
    if isinstance(typ, UrType):
        return True
    from repro.nr.types import ProdType

    if isinstance(typ, ProdType):
        return _is_ur_tuple(typ.left) and _is_ur_tuple(typ.right)
    return False


def flat_relation_type(arity: int) -> SetType:
    """The type of an ``arity``-ary flat relation."""
    if arity < 1:
        raise TypeMismatchError("relation arity must be at least 1")
    return set_of(tuple_type(*([UR] * arity)))


def relation_value(rows: Sequence[Sequence[object]]) -> SetValue:
    """Build a flat relation value from rows of raw atoms."""
    from repro.nr.values import tuple_value, ur

    return SetValue(frozenset(tuple_value(*[ur(a) for a in row]) for row in rows))


def relation_rows(value: SetValue, arity: int) -> Tuple[Tuple[object, ...], ...]:
    """Decompose a flat relation value back into sorted rows of raw atoms."""

    def split(v: Value, k: int) -> Tuple[object, ...]:
        if k == 1:
            if not isinstance(v, UrValue):
                raise TypeMismatchError(f"expected an Ur value, got {v}")
            return (v.atom,)
        if not isinstance(v, PairValue):
            raise TypeMismatchError(f"expected a pair, got {v}")
        return (v.first.atom,) + split(v.second, k - 1)

    rows = [split(elem, arity) for elem in value.elements]
    return tuple(sorted(rows, key=lambda r: tuple(map(str, r))))


# --------------------------------------------------------------------------- RA
@dataclass(frozen=True)
class RAExpr:
    """Base class of relational algebra expressions."""

    def arity(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class RelVar(RAExpr):
    """A named base relation of fixed arity."""

    name: str
    width: int

    def arity(self) -> int:
        return self.width


@dataclass(frozen=True)
class Select(RAExpr):
    """Selection σ_{col_a = col_b} (equality of two columns, 1-based)."""

    source: RAExpr
    col_a: int
    col_b: int

    def arity(self) -> int:
        return self.source.arity()


@dataclass(frozen=True)
class Project(RAExpr):
    """Projection onto the listed columns (1-based, order significant)."""

    source: RAExpr
    columns: Tuple[int, ...]

    def arity(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class Product(RAExpr):
    """Cartesian product."""

    left: RAExpr
    right: RAExpr

    def arity(self) -> int:
        return self.left.arity() + self.right.arity()


@dataclass(frozen=True)
class RAUnion(RAExpr):
    left: RAExpr
    right: RAExpr

    def arity(self) -> int:
        return self.left.arity()


@dataclass(frozen=True)
class RADiff(RAExpr):
    left: RAExpr
    right: RAExpr

    def arity(self) -> int:
        return self.left.arity()


def eval_ra(expr: RAExpr, relations) -> Tuple[Tuple[object, ...], ...]:
    """Evaluate a relational algebra expression over named relations.

    ``relations`` maps relation names to collections of equal-length tuples.
    Returns a sorted tuple of result rows.
    """
    result = _eval_ra(expr, {name: {tuple(r) for r in rows} for name, rows in relations.items()})
    return tuple(sorted(result, key=lambda r: tuple(map(str, r))))


def _eval_ra(expr: RAExpr, relations):
    if isinstance(expr, RelVar):
        rows = relations.get(expr.name, set())
        for row in rows:
            if len(row) != expr.width:
                raise TypeMismatchError(f"relation {expr.name} row {row} has wrong arity")
        return set(rows)
    if isinstance(expr, Select):
        return {row for row in _eval_ra(expr.source, relations) if row[expr.col_a - 1] == row[expr.col_b - 1]}
    if isinstance(expr, Project):
        return {tuple(row[c - 1] for c in expr.columns) for row in _eval_ra(expr.source, relations)}
    if isinstance(expr, Product):
        left = _eval_ra(expr.left, relations)
        right = _eval_ra(expr.right, relations)
        return {lt + rt for lt in left for rt in right}
    if isinstance(expr, RAUnion):
        return _eval_ra(expr.left, relations) | _eval_ra(expr.right, relations)
    if isinstance(expr, RADiff):
        return _eval_ra(expr.left, relations) - _eval_ra(expr.right, relations)
    raise TypeMismatchError(f"unknown RA expression {expr!r}")


def ra_to_nrc(expr: RAExpr) -> NRCExpr:
    """Translate relational algebra into NRC over flat relation variables.

    Base relations ``RelVar(name, k)`` become NRC variables of type
    ``Set(Ur^k)``.
    """
    if isinstance(expr, RelVar):
        return NVar(expr.name, flat_relation_type(expr.width))
    if isinstance(expr, Select):
        inner = ra_to_nrc(expr.source)
        arity = expr.source.arity()
        elem_type = tuple_type(*([UR] * arity))
        var = NVar("row_sel", elem_type)
        condition = eq_expr(tuple_proj(var, expr.col_a, arity), tuple_proj(var, expr.col_b, arity))
        return NBigUnion(cond_set(condition, NSingleton(var), NEmpty(elem_type)), var, inner)
    if isinstance(expr, Project):
        inner = ra_to_nrc(expr.source)
        arity = expr.source.arity()
        elem_type = tuple_type(*([UR] * arity))
        var = NVar("row_proj", elem_type)
        projected = tuple_expr(*[tuple_proj(var, c, arity) for c in expr.columns])
        return NBigUnion(NSingleton(projected), var, inner)
    if isinstance(expr, Product):
        left = ra_to_nrc(expr.left)
        right = ra_to_nrc(expr.right)
        left_arity = expr.left.arity()
        right_arity = expr.right.arity()
        left_elem = tuple_type(*([UR] * left_arity))
        right_elem = tuple_type(*([UR] * right_arity))
        lvar = NVar("row_l", left_elem)
        rvar = NVar("row_r", right_elem)
        combined = tuple_expr(
            *[tuple_proj(lvar, i, left_arity) for i in range(1, left_arity + 1)],
            *[tuple_proj(rvar, i, right_arity) for i in range(1, right_arity + 1)],
        )
        inner_union = NBigUnion(NSingleton(combined), rvar, right)
        return NBigUnion(inner_union, lvar, left)
    if isinstance(expr, RAUnion):
        return NUnion(ra_to_nrc(expr.left), ra_to_nrc(expr.right))
    if isinstance(expr, RADiff):
        return NDiff(ra_to_nrc(expr.left), ra_to_nrc(expr.right))
    raise TypeMismatchError(f"unknown RA expression {expr!r}")
