"""Word-count equations over frequency vectors.

A word-length equation is a row of integer cell coefficients indexed by
the 4^p frequency cells.  Rows are never written down from a formula;
they are assembled from two one-column bases by three structural moves
(zero insertion, the all-odd lift, entry toggling), so the assembly
route stays independent of the direct inner-product check used in the
tests.

Cell order is base-4 ascending with the first digit most significant,
matching the frequency-vector layout.  A row is held only as a uint8
array on the (4,)*p digit grid, one axis per column of V, and each move
is one array operation on that grid.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .z4 import LEE_WEIGHTS, cell_digits

#: tie-break rank of Z4 symbols inside equal-Lee-weight wordtypes
RANK = (0, 1, 3, 2)

MAX_P = 6


def _require_p(p: int) -> None:
    """Refuse a p outside the equation systems' range 1..MAX_P."""
    if not 1 <= p <= MAX_P:
        raise ValueError(f"p must be in 1..{MAX_P}, got {p}")


def cells(p: int) -> list[tuple[int, ...]]:
    """All 4^p cell patterns in index order."""
    return list(itertools.product(range(4), repeat=p))


def wordtype_sort_key(w: tuple[int, ...]) -> tuple:
    return (sum(LEE_WEIGHTS[x] for x in w), tuple(RANK[x] for x in w))


def negate(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((-x) % 4 for x in w)


def is_canonical(w: tuple[int, ...]) -> bool:
    """All entries even, or the first odd entry is a 1."""
    for x in w:
        if x % 2:
            return x == 1
    return any(w)


def canonicalize(w: tuple[int, ...]) -> tuple[int, ...]:
    return w if is_canonical(w) else negate(w)


def canonical_wordtypes(p: int) -> tuple[tuple[int, ...], ...]:
    """Canonical nonzero wordtypes, shortest Lee length first.

    One representative per {w, -w} pair.  There are
    2^p - 1 + 2^(2p-1) - 2^(p-1) of them: 2, 9, 35, 135 for p = 1..4.
    """
    _require_p(p)
    kinds = [w for w in cells(p) if any(w) and is_canonical(w)]
    kinds.sort(key=wordtype_sort_key)
    return tuple(kinds)


def parity_classes(p: int) -> tuple[tuple[int, ...], ...]:
    """Nonzero parity patterns: fewest odd positions first, then by
    pattern value."""
    out = [pi for pi in itertools.product((0, 1), repeat=p) if any(pi)]
    out.sort(key=lambda pi: (sum(pi), pi))
    return tuple(out)


class _GridRow:
    """A row's cells, held in its `grid` field as a read-only uint8 array
    on the (4,)*p digit grid, one axis per column of V (given as a flat
    row or a grid).  `coeffs` is the flat tuple, made on demand.  Rows
    compare by identity (eq=False: arrays do not compare to one bool);
    compare their `coeffs`."""

    def _hold_grid(self, p: int) -> None:
        grid = np.asarray(self.grid, dtype=np.uint8)
        if grid.size != 4 ** p:
            raise ValueError("coefficient row does not cover all cells")
        grid = grid.reshape((4,) * p)
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.grid.ravel().tolist())


@dataclass(frozen=True, eq=False)
class KEquation(_GridRow):
    """k_w = constant-free coefficient row; the wordtype's own Lee
    length is carried separately as `constant`."""

    wordtype: tuple[int, ...]
    constant: int
    grid: np.ndarray

    def __post_init__(self):
        self._hold_grid(len(self.wordtype))


@dataclass(frozen=True, eq=False)
class AEquation(_GridRow):
    parity: tuple[int, ...]
    delta: int
    grid: np.ndarray

    def __post_init__(self):
        self._hold_grid(len(self.parity))


@functools.cache
def _digits(p: int) -> np.ndarray:
    """(4^p, p) uint8: the digits of every cell, in index order."""
    return cell_digits(np.arange(4 ** p), p).astype(np.uint8)


def basis_single_one(p: int, pos: int) -> KEquation:
    w = tuple(1 if j == pos else 0 for j in range(p))
    return KEquation(w, 1, np.take(LEE_WEIGHTS, _digits(p)[:, pos]))


def basis_single_two(p: int, pos: int) -> KEquation:
    w = tuple(2 if j == pos else 0 for j in range(p))
    return KEquation(w, 2, 2 * (_digits(p)[:, pos] % 2))


def ca_add(k1: KEquation, k2: KEquation,
           wtype: tuple[int, ...] | None = None) -> KEquation:
    """Cellwise Lee-weight sum of two rows.

    Exact whenever one operand's wordtype is all even (2 and -2 agree
    mod 4, so the sign ambiguity of a Lee weight drops out).  The
    assembly below only ever adds single-two rows, which qualify.
    """
    if len(k1.wordtype) != len(k2.wordtype):
        raise ValueError("mixed widths")
    w = wtype
    if w is None:
        w = tuple((a + b) % 4 for a, b in zip(k1.wordtype, k2.wordtype))
    return KEquation(w, sum(LEE_WEIGHTS[x] for x in w),
                     np.take(LEE_WEIGHTS, (k1.grid + k2.grid) % 4))


def lift_insert_zero(eq: KEquation, pos: int) -> KEquation:
    """Widen by one column that the word does not touch."""
    w = eq.wordtype[:pos] + (0,) + eq.wordtype[pos:]
    return KEquation(w, eq.constant, np.stack([eq.grid] * 4, axis=pos))


def lift_all_odd(eq: KEquation) -> KEquation:
    """From the all-one row on p-1 columns to (1, 3, ..., 3) on p.

    Each old cell spreads over the 4 new cells (s, i_1, .., i_{p-2},
    i_{p-1} + s); the new leading digit cancels against the shifted
    last one, so the old coefficient carries over unchanged.
    """
    p_old = len(eq.wordtype)
    if eq.wordtype != (1,) * p_old:
        raise ValueError("lift starts from the all-one wordtype")
    w = (1,) + (3,) * p_old
    return KEquation(w, 1 + p_old, np.stack(
        [np.roll(eq.grid, s, axis=-1) for s in range(4)]))


def toggle_entry(eq: KEquation, pos: int) -> KEquation:
    """Add 2 to one wordtype entry (0<->2 or 1<->3) via ca_add."""
    return ca_add(eq, basis_single_two(len(eq.wordtype), pos))


def all_odd_closed_form(p: int) -> KEquation:
    """Direct row for the all-one wordtype, from the digit sum alone.

    Coefficient of a cell is 1 when its digit sum is odd, 2 when the
    sum is 2 mod 4, 0 when it is 0 mod 4.  Exactly 2^(2p-1) cells get
    coefficient 1 and 2^(2p-2) get each of 0 and 2; of the 2^p
    all-even cells, 2^(p-1) land on 0 and 2^(p-1) on 2.  Kept as an
    independent check on the lift/toggle route.
    """
    if p < 1:
        raise ValueError("p must be positive")
    return KEquation((1,) * p, p,
                     np.take(LEE_WEIGHTS, _digits(p).sum(axis=1) % 4))


def a_equation(w: tuple[int, ...]) -> AEquation:
    """Mod-2 row deciding the aliasing-index exponent for wordtype w."""
    parity = tuple(x % 2 for x in w)
    if not any(parity):
        raise ValueError("complete word: aliasing index is 1")
    q = sum(parity)
    return AEquation(parity, 1 - q % 2, _digits(len(w)) @ parity % 2)


class EquationSystem:
    """All canonical word-length rows and parity rows for p columns.

    `C` and `B` hold them as read-only (rows, 4^p) uint8 arrays, in
    `k_order` and `a_order`."""

    def __init__(self, p: int):
        _require_p(p)
        self.p = p
        self.k_order = canonical_wordtypes(p)
        self.a_order = parity_classes(p)
        self._memo: dict[tuple[int, ...], KEquation] = {}
        for w in self.k_order:
            self._build(w)
        self._a = {pi: a_equation(pi) for pi in self.a_order}
        self.C = _stacked(self._memo[w].grid for w in self.k_order)
        self.B = _stacked(self._a[pi].grid for pi in self.a_order)

    def _build(self, w: tuple[int, ...]) -> KEquation:
        got = self._memo.get(w)
        if got is not None:
            return got
        p = self.p
        nonzero = [j for j, x in enumerate(w) if x]
        if len(nonzero) == 1:
            j = nonzero[0]
            if w[j] == 1:
                eq = basis_single_one(p, j)
            elif w[j] == 2:
                eq = basis_single_two(p, j)
            else:  # a lone 3 is the toggled lone 1
                eq = toggle_entry(basis_single_one(p, j), j)
        elif 0 in w:
            pos = w.index(0)
            narrow = build_system(p - 1)._build(w[:pos] + w[pos + 1:])
            eq = lift_insert_zero(narrow, pos)
        elif all(x % 2 for x in w):
            if w == (1,) + (3,) * (p - 1):
                ones = ((1,) * (p - 1))
                eq = lift_all_odd(build_system(p - 1)._build(ones))
            else:
                j = next(j for j in range(1, p) if w[j] == 1)
                eq = toggle_entry(self._build(w[:j] + (3,) + w[j + 1:]), j)
        else:
            j = w.index(2)
            eq = toggle_entry(self._build(w[:j] + (0,) + w[j + 1:]), j)
        self._memo[w] = eq
        return eq

    def k_equation(self, w: tuple[int, ...]) -> KEquation:
        """Row for any nonzero wordtype; w and -w share one row."""
        w = tuple(w)
        if len(w) != self.p or any(x not in (0, 1, 2, 3) for x in w):
            raise ValueError(f"not a Z4 wordtype of width {self.p}: {w}")
        if not any(w):
            raise ValueError("the zero wordtype has no word-length row")
        if is_canonical(w):
            return self._build(w)
        base = self._build(canonicalize(w))
        return KEquation(w, base.constant, base.grid)

    def a_equation_for(self, w: tuple[int, ...]) -> AEquation:
        return self._a.get(tuple(x % 2 for x in w)) or a_equation(w)

    @property
    def constants(self) -> tuple[int, ...]:
        return tuple(self._build(w).constant for w in self.k_order)

    @property
    def deltas(self) -> tuple[int, ...]:
        return tuple(self._a[pi].delta for pi in self.a_order)

    def c_matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.C.tolist()))

    def b_matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.B.tolist()))


def _stacked(grids) -> np.ndarray:
    """Grids as the rows of one read-only (rows, 4^p) array."""
    rows = np.stack([g.ravel() for g in grids])
    rows.flags.writeable = False
    return rows


def build_system(p: int) -> EquationSystem:
    """Memoized; systems are immutable once built."""
    return _cached_system(p)


# not on build_system: the bench tests check it carries no __wrapped__
@functools.cache
def _cached_system(p: int) -> EquationSystem:
    return EquationSystem(p)
