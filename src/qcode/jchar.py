"""Exact aliasing oracle: J-characteristics, word spectra, GWLP, resolution.

Everything here is computed directly from the +/-1 design matrix with
integer arithmetic; aliasing indices are exact `Fraction`s.  The subset
scan is the ground truth that the closed-form layer is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import comb, lcm
from operator import itemgetter

import numpy as np

from .z4 import BinaryDesign, BudgetExceeded

__all__ = ["BudgetExceeded", "SCAN_STEP_BUDGET", "WordSpectrum",
           "DesignSummary", "j_characteristic", "aliasing_index",
           "spectrum_bruteforce", "summarize", "scan_cost",
           "duplicated_column_pairs", "negation_masks", "walsh_hadamard"]

#: refuse subset scans costing more than this many limb steps unless
#: forced; a step is one XOR and popcount of a 64-run limb, about 11 ns
#: on a 2-core x86 machine, so the budget is about a minute of scanning
SCAN_STEP_BUDGET = 5 * 10 ** 9

#: fixed cost of visiting one subset in the scan, in limb steps (about
#: 500 ns of interpreter work per subset, whatever the run count)
_SUBSET_VISIT_STEPS = 45

#: largest factor count handled by the full Walsh-Hadamard transform
_WHT_MAX_FACTORS = 24

#: runs per block of `negation_masks`
_MASK_RUNS = 1 << 16

#: most factors an int64 negation mask holds
_MASK_MAX_FACTORS = 63


def _check_subset(d: BinaryDesign, indices) -> tuple[int, ...]:
    idx = tuple(indices)
    if not idx:
        raise ValueError("column subset is empty")
    seen = set()
    for i in idx:
        if not 1 <= i <= d.factors:
            raise ValueError(f"column index {i} outside 1..{d.factors}")
        if i in seen:
            raise ValueError(f"column index {i} listed twice")
        seen.add(i)
    return idx


def j_characteristic(d: BinaryDesign, indices) -> int:
    """Sum over runs of the product of the selected (1-based) columns."""
    idx = _check_subset(d, indices)
    prod = np.prod(d.cells[:, [i - 1 for i in idx]].astype(np.int64), axis=1)
    return int(prod.sum())


def aliasing_index(d: BinaryDesign, indices) -> Fraction:
    return Fraction(abs(j_characteristic(d, indices)), d.runs)


@dataclass(frozen=True)
class WordSpectrum:
    """Aggregated (length, aliasing index, count) triples, length >= 3."""

    entries: tuple[tuple[int, Fraction, int], ...]

    def __post_init__(self):
        # checked and sorted on a Fraction's ints: its hash and comparisons
        # are slow
        seen = set()
        for length, rho, count in self.entries:
            if length < 3:
                raise ValueError(f"word length {length} below 3")
            if not 0 < rho.numerator <= rho.denominator:
                raise ValueError(f"aliasing index {rho} outside (0, 1]")
            if count < 1:
                raise ValueError("counts must be positive")
            cell = (length, rho.numerator, rho.denominator)
            if cell in seen:
                raise ValueError(f"duplicate spectrum cell {(length, rho)}")
            seen.add(cell)
        # rho = num / den is -(num * (scale // den)) / scale, negated for
        # largest first
        scale = lcm(*{den for _, _, den in seen})
        ordered = tuple(sorted(self.entries, key=lambda e: (
            e[0], -e[1].numerator * (scale // e[1].denominator))))
        object.__setattr__(self, "entries", ordered)

    def total_words(self) -> int:
        return sum(c for _, _, c in self.entries)

    def is_dyadic(self) -> bool:
        return all(r.numerator == 1 and (r.denominator & (r.denominator - 1)) == 0
                   for _, r, _ in self.entries)


@dataclass(frozen=True)
class DesignSummary:
    gwlp: tuple[Fraction, ...]  # A_3 .. A_factors
    resolution: Fraction | None  # None when no word was found
    max_rho_at_min_length: Fraction | None
    scanned_length: int

    def resolution_text(self) -> str:
        if self.resolution is None:
            return f"> {self.scanned_length}"
        return str(self.resolution)


def summarize(spectrum: WordSpectrum, factors: int,
              scanned_length: int | None = None) -> DesignSummary:
    """GWLP A_3..A_factors plus generalized resolution r + 1 - max rho at r."""
    scanned = factors if scanned_length is None else scanned_length
    gwlp = [Fraction(0)] * (factors - 2)
    # A_length = sum of count * num^2 / den^2, over the lcm of the dens
    for length, cells in groupby(spectrum.entries, key=itemgetter(0)):
        if length > factors:
            raise ValueError(f"word length {length} exceeds {factors} factors")
        cells = list(cells)
        den = lcm(*(rho.denominator for _, rho, _ in cells))
        gwlp[length - 3] = Fraction(sum(
            c * (rho.numerator * (den // rho.denominator)) ** 2
            for _, rho, c in cells), den * den)
    if not spectrum.entries:
        return DesignSummary(tuple(gwlp), None, None, scanned)
    # entries run by length, then largest rho first
    r, worst, _ = spectrum.entries[0]
    return DesignSummary(tuple(gwlp), r + 1 - worst, worst, scanned)


def word_length_limit(factors: int, max_length: int | None) -> int:
    """The longest word a report covers: every factor, unless a length
    in 3..factors is asked for."""
    if max_length is None:
        return factors
    if not 3 <= max_length <= factors:
        raise ValueError(f"max_length must be in 3..{factors}")
    return max_length


def scan_cost(factors: int, runs: int, max_len: int) -> int:
    """Limb steps of the subset scan: it visits every subset of 1..max_len
    columns, each for a fixed step plus one step per 64-run limb."""
    subsets = sum(comb(factors, k) for k in range(1, max_len + 1))
    return subsets * (_SUBSET_VISIT_STEPS + -(-runs // 64))


def _popcount(a: np.ndarray) -> np.ndarray:
    """uint8 count of the one bits of |a|, as numpy 2's `bitwise_count`
    gives it; unpacked byte by byte on an older numpy."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(a)
    magnitude = np.abs(a).astype(np.uint64)
    bits = np.unpackbits(magnitude[..., None].view(np.uint8), axis=-1)
    return bits.sum(axis=-1, dtype=np.uint8)


def negation_masks(d: BinaryDesign) -> np.ndarray:
    """Per-run bitmask of columns holding -1 (bit i = column i+1), made
    2^16 runs at a time, so the int64 copy of the cells stays small.
    The masks are int64, so at most 63 factors fit."""
    if d.factors > _MASK_MAX_FACTORS:
        raise ValueError(f"negation masks hold at most {_MASK_MAX_FACTORS} "
                         f"factors, got {d.factors}")
    weights = 1 << np.arange(d.factors)
    return np.concatenate([(d.cells[lo:lo + _MASK_RUNS] < 0).astype(np.int64)
                           @ weights for lo in range(0, d.runs, _MASK_RUNS)])


def _wht_in_place(a: np.ndarray) -> np.ndarray:
    """WHT of `a` along its last axis (leading axes are a batch), using
    `a` itself as one of the two buffers; entry S of the result is j of
    column subset S.  Each stage writes neighbouring pairs' sums and
    differences to the other buffer's two halves (constant geometry), so
    the result is `a` or the scratch buffer, and `a` is overwritten."""
    half = a.shape[-1] // 2
    buf = np.empty_like(a)
    for _ in range(half.bit_length()):
        even, odd = a[..., 0::2], a[..., 1::2]
        np.add(even, odd, out=buf[..., :half])
        np.subtract(even, odd, out=buf[..., half:])
        a, buf = buf, a
    return a


def walsh_hadamard(counts: np.ndarray) -> np.ndarray:
    """WHT along the last axis (leading axes are a batch), in the input's
    dtype, leaving the input alone; entry S of the result is j of column
    subset S."""
    return _wht_in_place(counts.copy())


def _subset_j(d: BinaryDesign) -> np.ndarray:
    """j of every column subset: a histogram of the negation masks, then
    its WHT in place, both in the narrowest integer type that holds
    +-runs; two buffers of 2^factors cells in all."""
    counts = np.zeros(1 << d.factors, dtype=np.min_scalar_type(-d.runs - 1))
    np.add.at(counts, negation_masks(d), 1)
    return _wht_in_place(counts)


def _subset_sizes(factors: int) -> np.ndarray:
    """uint8 size of every column subset S < 2^factors, as the outer sum
    of the popcounts of S's high and low halves, so no 2^factors index
    array is made."""
    low = factors // 2
    pc = _popcount(np.arange(1 << (factors - low), dtype=np.uint32))
    return np.add.outer(pc, pc[:1 << low], dtype=np.uint8).ravel()


def _cell_keys(sizes: np.ndarray, j: np.ndarray, width: int) -> np.ndarray:
    """int64 key size * width + |j| of each (size, |j|) cell.  The sizes
    are widened before the product: a uint8 times a small int stays
    uint8 under numpy's casting rules, and would wrap.  One int64 array,
    updated in place."""
    keys = sizes.astype(np.int64)
    keys *= width
    keys += np.abs(j)
    return keys


def _spectrum_wht(d: BinaryDesign, max_len: int) -> WordSpectrum:
    j = _subset_j(d)
    sizes = _subset_sizes(d.factors)
    keep = (j != 0) & (sizes >= 3) & (sizes <= max_len)
    # |j| <= runs, so width runs + 1 keeps the cells apart
    width = d.runs + 1
    keys, n = np.unique(_cell_keys(sizes[keep], j[keep], width),
                        return_counts=True)
    lengths, values = (a.tolist() for a in np.divmod(keys, width))
    rhos = {v: Fraction(v, d.runs) for v in set(values)}
    return WordSpectrum(tuple((s, rhos[v], c) for s, v, c
                              in zip(lengths, values, n.tolist())))


def _spectrum_dfs(d: BinaryDesign, max_len: int) -> WordSpectrum:
    # bit-packed columns: XOR composes products, popcount recovers j
    packed = np.packbits(d.cells < 0, axis=0, bitorder="little")
    cols = [int.from_bytes(packed[:, i].tobytes(), "little")
            for i in range(d.factors)]
    runs = d.runs
    found: dict[tuple[int, int], int] = {}

    def walk(start: int, depth: int, acc: int) -> None:
        for i in range(start, d.factors):
            cur = acc ^ cols[i]
            size = depth + 1
            if size >= 3:
                j = runs - 2 * cur.bit_count()
                if j:
                    key = (size, abs(j))
                    found[key] = found.get(key, 0) + 1
            if size < max_len:
                walk(i + 1, size, cur)

    walk(0, 0, 0)
    entries = tuple((s, Fraction(v, runs), c) for (s, v), c in found.items())
    return WordSpectrum(entries)


def spectrum_bruteforce(d: BinaryDesign, max_len: int,
                        force: bool = False) -> WordSpectrum:
    """Every subset of 3..max_len columns with a nonzero J-characteristic."""
    if max_len > d.factors:
        raise ValueError(f"max_len {max_len} exceeds {d.factors} factors")
    if d.factors <= _WHT_MAX_FACTORS:
        return _spectrum_wht(d, max_len)
    cost = scan_cost(d.factors, d.runs, max_len)
    if cost > SCAN_STEP_BUDGET and not force:
        raise BudgetExceeded(
            f"subset scan needs about {cost:.2e} limb steps "
            f"(budget {SCAN_STEP_BUDGET:.0e}); pass force to run anyway")
    return _spectrum_dfs(d, max_len)


def duplicated_column_pairs(d: BinaryDesign) -> list[tuple[int, int, int]]:
    """Fully aliased 1-based column pairs (i, j, sign); not part of any GWLP."""
    out = []
    for i in range(d.factors):
        for j in range(i + 1, d.factors):
            dot = int(d.cells[:, i].astype(np.int64) @ d.cells[:, j])
            if abs(dot) == d.runs:
                out.append((i + 1, j + 1, 1 if dot > 0 else -1))
    return out
