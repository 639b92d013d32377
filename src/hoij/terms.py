"""Symbolic tables of the derivative terms driving each expansion order.

Differentiating the root identity G(theta(w), w) = 0 repeatedly in the
weights produces, at order k, a linear combination of products of the form

    (k-th G-derivative, optionally once differentiated in w)
        applied to lower-order directional derivatives of the solution.

Each product is recorded as a tuple (coefficient a, multiset K of the orders
of the solution derivatives it consumes, flag omega marking whether the
weight derivative was taken).  The tables are problem-independent: they are
generated once by the product-rule recursion below and reused for every
estimating problem and every weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .forward_ad import K_MAX


@dataclass(frozen=True)
class DerivativeTerm:
    """One product term: coefficient, multiset of consumed orders, weight flag."""

    coeff: int
    kset: tuple[int, ...]
    omega: int

    def __post_init__(self):
        if self.coeff < 1:
            raise ValueError(f"coefficient must be a positive integer, got {self.coeff}")
        if self.omega not in (0, 1):
            raise ValueError(f"omega must be 0 or 1, got {self.omega}")
        if any(k < 1 for k in self.kset):
            raise ValueError(f"multiset entries must be positive, got {self.kset}")
        # Canonical descending order makes structural equality merge-ready.
        object.__setattr__(self, "kset", tuple(sorted(self.kset, reverse=True)))

    @property
    def total_order(self) -> int:
        return self.omega + sum(self.kset)


def _merge(terms: Iterable[DerivativeTerm]) -> tuple[DerivativeTerm, ...]:
    acc: dict[tuple, int] = {}
    for t in terms:
        key = (t.omega, t.kset)
        acc[key] = acc.get(key, 0) + t.coeff
    merged = [DerivativeTerm(c, kset, omega) for (omega, kset), c in acc.items()]
    merged.sort(key=lambda t: (t.omega, t.kset), reverse=True)
    return tuple(merged)


def differentiate_term(t: DerivativeTerm) -> list[DerivativeTerm]:
    """Product rule applied once to a derivative term, duplicates merged.

    Three kinds of children: each multiset entry k bumps to k + 1 (an inner
    solution derivative was differentiated); a 1 joins the multiset (the
    G-derivative gained one order through its theta argument); and, when the
    weight derivative has not been taken yet, a copy with omega flipped to 1.
    """
    children = []
    kset = t.kset
    for i in range(len(kset)):
        bumped = kset[:i] + (kset[i] + 1,) + kset[i + 1:]
        children.append(DerivativeTerm(t.coeff, bumped, t.omega))
    children.append(DerivativeTerm(t.coeff, kset + (1,), t.omega))
    if t.omega == 0:
        children.append(DerivativeTerm(t.coeff, kset, 1))
    return list(_merge(children))


@dataclass(frozen=True)
class TermTable:
    """Per-order term tuples; ``orders[k - 1]`` drives the order-k derivative."""

    max_order: int
    orders: tuple[tuple[DerivativeTerm, ...], ...]

    def for_order(self, k: int) -> tuple[DerivativeTerm, ...]:
        if not 1 <= k <= self.max_order:
            raise ValueError(f"order {k} outside 1..{self.max_order}")
        return self.orders[k - 1]

    def to_json_obj(self) -> dict:
        return {
            str(k): [
                {"a": t.coeff, "kset": list(t.kset), "omega": t.omega}
                for t in self.for_order(k)
            ]
            for k in range(1, self.max_order + 1)
        }


def build_term_tables(max_order: int) -> TermTable:
    """Generate the tables for orders 1..max_order.

    Order 1 is the single weight-derivative term.  Each next order comes
    from differentiating the full order-k identity, i.e. the solved-for
    product (1, {k}, 0) together with the order-k table, then removing the
    newly solved-for (1, {k+1}, 0) and merging duplicates.
    """
    if not 1 <= max_order <= K_MAX:
        raise ValueError(f"max_order {max_order} outside 1..{K_MAX}")
    orders = [(DerivativeTerm(1, (), 1),)]
    for k in range(1, max_order):
        identity = (DerivativeTerm(1, (k,), 0),) + orders[-1]
        children = []
        for t in identity:
            children.extend(differentiate_term(t))
        merged = _merge(children)
        solved = [t for t in merged if t.kset == (k + 1,) and t.omega == 0]
        if len(solved) != 1 or solved[0].coeff != 1:
            raise AssertionError(f"expected exactly one solved-for term at order {k + 1}")
        orders.append(tuple(t for t in merged if t is not solved[0]))
    return TermTable(max_order, tuple(orders))


@lru_cache(maxsize=None)
def term_tables(max_order: int) -> TermTable:
    """Cached immutable tables; safe to share across threads."""
    return build_term_tables(max_order)


@dataclass(frozen=True)
class TableCheck:
    order: int
    term: DerivativeTerm
    ok: bool
    message: str


@dataclass(frozen=True)
class TableReport:
    checks: tuple[TableCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[TableCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def verify_table_invariants(table: TermTable) -> TableReport:
    """Check every stored tuple against the structural constraints.

    At order k each term must consume only derivatives of order below k
    (max of the multiset < k) and carry total order exactly k
    (omega + sum of the multiset = k); duplicates must have been merged.
    """
    checks = []
    for k in range(1, table.max_order + 1):
        seen = set()
        for t in table.for_order(k):
            problems = []
            if t.kset and max(t.kset) >= k:
                problems.append(f"max(kset)={max(t.kset)} not < order {k}")
            if t.total_order != k:
                problems.append(f"omega + sum(kset) = {t.total_order} != {k}")
            if t.coeff < 1:
                problems.append(f"coefficient {t.coeff} not a positive integer")
            key = (t.omega, t.kset)
            if key in seen:
                problems.append("duplicate (kset, omega) pair not merged")
            seen.add(key)
            checks.append(
                TableCheck(k, t, not problems, "; ".join(problems) or "ok")
            )
    return TableReport(tuple(checks))
