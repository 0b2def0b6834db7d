"""Exact aliasing oracle: J-characteristics, word spectra, GWLP, resolution.

Everything here is computed directly from the +/-1 design matrix with
integer arithmetic; aliasing indices are exact `Fraction`s.  The subset
scan is the ground truth that the closed-form layer is tested against.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import comb, lcm
from operator import itemgetter

import numpy as np

from .z4 import BinaryDesign, BudgetExceeded, _require_ints

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

#: log2 of the cells in one block of the WHT: a block of 2^17 cells and
#: the scratch block (512 KiB each as int32), or a strip and its wide
#: int32 pair, fit in a core's 2 MiB L2 cache, so the butterflies on a
#: block's low bits, and on a strip of the high bits, use cached rows
_WHT_BLOCK_BITS = 17

#: runs per block of `negation_masks` and `_column_gram`
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
        # sorted only when a cell is out of order
        if not _checked_in_order(self.entries):
            ordered = tuple(sorted(self.entries, key=lambda e: (e[0], -e[1])))
            _checked_in_order(ordered)  # each duplicate beside its twin
            object.__setattr__(self, "entries", ordered)

    def total_words(self) -> int:
        return sum(c for _, _, c in self.entries)

    def is_dyadic(self) -> bool:
        return all(r.numerator == 1 and (r.denominator & (r.denominator - 1)) == 0
                   for _, r, _ in self.entries)


def _checked_in_order(entries) -> bool:
    """Check each (length, rho, count) cell on a Fraction's ints (its hash
    and comparisons are slow), and whether the cells run by length, then
    largest rho first: each against the one before, rhos compared by
    cross-multiplication.  A duplicate beside its twin raises."""
    in_order, last, last_num, last_den = True, 0, 0, 1
    for length, rho, count in entries:
        num, den = rho.numerator, rho.denominator
        if length < 3:
            raise ValueError(f"word length {length} below 3")
        if not 0 < num <= den:
            raise ValueError(f"aliasing index {rho} outside (0, 1]")
        if count < 1:
            raise ValueError("counts must be positive")
        # positive when the cell comes after the one before, 0 on a repeat
        ahead = length - last or last_num * den - num * last_den
        if not ahead:
            raise ValueError(f"duplicate spectrum cell {(length, rho)}")
        in_order = in_order and ahead > 0
        last, last_num, last_den = length, num, den
    return in_order


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
    _require_ints("max_length", (max_length,))
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
    """Per-run bitmask of columns holding -1 (bit i = column i+1): each
    run's signs, padded to whole bytes, packed into the bytes of one
    little-endian int64, 2^16 runs at a time, so the boolean copy of the
    cells stays small.  The masks are int64, so at most 63 factors fit."""
    if d.factors > _MASK_MAX_FACTORS:
        raise ValueError(f"negation masks hold at most {_MASK_MAX_FACTORS} "
                         f"factors, got {d.factors}")
    masks = np.zeros((d.runs, 8), dtype=np.uint8)
    signs = np.zeros((min(d.runs, _MASK_RUNS), -(-d.factors // 8) * 8),
                     dtype=bool)
    for lo in range(0, d.runs, _MASK_RUNS):
        rows = d.cells[lo:lo + _MASK_RUNS]
        np.less(rows, 0, out=signs[:len(rows), :d.factors])
        # a row of whole bytes packs on its own, so the flat pack is fast
        masks[lo:lo + len(rows), :signs.shape[1] // 8] = np.packbits(
            signs[:len(rows)], bitorder="little").reshape(len(rows), -1)
    return masks.view("<i8")[:, 0]


def _butterflies(x: np.ndarray, y: np.ndarray, bits) -> np.ndarray:
    """Radix-2 butterflies on each of `bits` of the index along axis 0 of
    `x` in turn: the pair of cells that differ only in bit k gets its sum
    and difference, written to `y` in the pair's own places, and the two
    buffers swap.  The pairs of bit k are whole rows of 2^k cells (times
    the rest of a row), so every add reads and writes contiguous rows.
    On a 1-D `x`, a stage on rows under 2^4 cells runs across the rows
    instead, one long strided loop per ufunc.  Returns the buffer that
    holds the result."""
    for k in bits:
        xv = x.reshape(-1, 2, 1 << k, *x.shape[1:])
        yv = y.reshape(xv.shape)
        if x.ndim == 1 and k < 4:  # from 2^4 cells up, rows are faster
            xv, yv = xv.T, yv.T
        first, second = xv[:, 0], xv[:, 1]
        np.add(first, second, out=yv[:, 0], order="C")
        np.subtract(first, second, out=yv[:, 1], order="C")
        x, y = y, x
    return x


def _strip_grid(a: np.ndarray) -> np.ndarray:
    """(strip, 2^g, w) view of the 1-D `a` as a (2^g, 2^c) matrix, c =
    min(bits, `_WHT_BLOCK_BITS`), cut in strips of w = 2^max(0, c-g)."""
    bits = a.size.bit_length() - 1
    g = max(0, bits - _WHT_BLOCK_BITS)
    return a.reshape(1 << g, -1, 1 << max(0, bits - 2 * g)).swapaxes(0, 1)


def _finished_strips(a: np.ndarray, done: int, wide: np.dtype):
    """WHT of the 1-D `a`, yielded one finished `_strip_grid` strip at a
    time as (strip number, cells), in a buffer the next one reuses; bits
    below `done` count as done.  Each 2^c-cell block takes bits
    done..c-1 while cached, in place; its cells then hold at most its
    runs, so `a` may be narrower than the final dtype `wide`.  The high
    bits go in one pass, strip by strip: in place when `a` is `wide`,
    else in a wide pair that the strip is copied into."""
    bits = a.size.bit_length() - 1
    c = min(bits, _WHT_BLOCK_BITS)
    grid = _strip_grid(a)
    step, shape = min(a.size, 1 << _WHT_BLOCK_BITS), grid.shape[1:]
    scratch = np.empty(max(step, shape[0] * shape[1]), dtype=a.dtype)
    for lo in range(0, a.size, step):
        block = a[lo:lo + step]
        x = _butterflies(block, scratch[:block.size], range(done, c))
        if x is not block:
            np.copyto(block, x)
    copy, spare = ((None, scratch[:shape[0] * shape[1]].reshape(shape))
                   if wide == a.dtype else np.empty((2, *shape), wide))
    for s, strip in enumerate(grid):
        if copy is not None:
            np.copyto(copy, strip)
            strip = copy
        yield s, _butterflies(strip, spare, range(max(done, c) - c, bits - c))


def walsh_hadamard(counts: np.ndarray) -> np.ndarray:
    """WHT along the last axis (leading axes are a batch), in the input's
    dtype, leaving the input alone; entry S is j of column subset S."""
    out = counts.copy()
    for row in out.reshape(-1, out.shape[-1]):
        grid = _strip_grid(row)
        for s, x in _finished_strips(row, 0, row.dtype):
            grid[s] = x
    return out


@functools.cache
def _hadamard(b: int, dtype: np.dtype) -> np.ndarray:
    """Read-only 2^b x 2^b Hadamard matrix: row lo is the WHT of unit lo.
    H_b is symmetric, so it is also the identity transformed down its
    columns: butterflies on whole rows of 2^b cells."""
    eye = np.eye(1 << b, dtype=dtype)
    h = _butterflies(eye, np.empty_like(eye), range(b))
    h.flags.writeable = False
    return h


def _rows_from_runs(d: BinaryDesign) -> tuple[np.ndarray, int, np.dtype]:
    """(buffer, b, wide): the masks' histogram transformed on its low b =
    factors - floor(log2 runs) bits (capped at half a block, 0 from
    2^factors runs up), and the narrowest type that holds +-runs.  In
    the (2^(f-b), 2^b) view a run with mask hi * 2^b + lo adds row lo of
    H_b to row hi; a Z4 code's design has b = 2p, one run per row, and at
    b = 0 the rows of H_0 = [[1]] make the masks' histogram.  The buffer's
    type holds the most runs of one WHT block, which bound its cells
    until the high bits."""
    wide = np.min_scalar_type(-d.runs - 1)
    b = max(0, min(d.factors - (max(d.runs, 1).bit_length() - 1),
                   _WHT_BLOCK_BITS // 2))
    hi = negation_masks(d)
    lo = np.empty(len(hi), dtype=np.uint8)  # no int64 temporary
    np.bitwise_and(hi, (1 << b) - 1, out=lo, casting="unsafe")
    np.right_shift(hi, b, out=hi)
    hits = np.zeros(1 << (d.factors - b), dtype=wide)
    np.add.at(hits, hi, wide.type(1))  # a Python 1 takes a slow cast
    blocks = hits.reshape(-1, 1 << (min(d.factors, _WHT_BLOCK_BITS) - b))
    dtype = wide if len(blocks) == 1 else np.min_scalar_type(
        -int(blocks.sum(1, dtype=wide).max()) - 1)
    cell = np.zeros(len(hits), dtype=np.uint8)  # lo of a run in each row
    cell[hi] = lo
    several = hits[hi] > 1  # never in a code's design
    hi, lo = hi[several], lo[several]
    h_b = _hadamard(b, dtype)
    out = np.empty(1 << d.factors, dtype=dtype)
    rows = out.reshape(len(hits), -1)
    np.take(h_b, cell, axis=0, out=rows, mode="clip")  # "raise" buffers `out`
    rows[hits != 1] = 0
    step = (1 << _WHT_BLOCK_BITS) >> b
    for at in range(0, len(hi), step):
        np.add.at(rows, hi[at:at + step], h_b[lo[at:at + step]])
    return out, b, wide


def _cell_keys(sizes: np.ndarray, j: np.ndarray, runs: int) -> np.ndarray:
    """int64 key size * (runs + 1) + runs - |j| of each (size, j) cell,
    j nonzero: ascending keys run in canonical order, by size, then
    largest |j| (rho) first.  The sizes are widened before the product:
    a uint8 times a small int stays uint8 under numpy's casting rules,
    and would wrap.  One int64 array, updated in place."""
    keys = sizes.astype(np.int64)
    keys *= runs + 1
    keys += runs
    keys -= np.abs(j)
    return keys


def _scan_spectrum(tally: dict[int, int], runs: int) -> WordSpectrum:
    """The spectrum of a scan's tally of `_cell_keys`, its cells built in
    ascending key order, so in canonical order, with one Fraction per
    distinct |j|."""
    cells = [(*divmod(key, runs + 1), n) for key, n in sorted(tally.items())]
    rhos = {v: Fraction(runs - v, runs) for _, v, _ in cells}
    return WordSpectrum(tuple((s, rhos[v], n) for s, v, n in cells))


def _spectrum_wht(d: BinaryDesign, max_len: int) -> WordSpectrum:
    """The spectrum tallied one finished strip at a time, with no
    2^factors array of sizes or flags; a subset's size is the popcount of
    its place in the strip plus that of the strip's number."""
    tally = Counter()
    for s, x in _finished_strips(*_rows_from_runs(d)):
        # nonzero runs several times faster on flags than on ints
        words = np.flatnonzero(x != 0)
        sizes = _popcount(words) + s.bit_count()
        keep = (sizes >= 3) & (sizes <= max_len)
        keys, n = np.unique(_cell_keys(sizes[keep], x.ravel()[words[keep]],
                                       d.runs), return_counts=True)
        tally.update(dict(zip(keys.tolist(), n.tolist())))
    return _scan_spectrum(tally, d.runs)


def _spectrum_dfs(d: BinaryDesign, max_len: int) -> WordSpectrum:
    # bit-packed columns: XOR composes products, popcount recovers j
    packed = np.packbits(d.cells < 0, axis=0, bitorder="little")
    cols = [int.from_bytes(packed[:, i].tobytes(), "little")
            for i in range(d.factors)]
    runs = d.runs
    tally: dict[int, int] = {}

    def walk(start: int, depth: int, acc: int) -> None:
        for i in range(start, d.factors):
            cur = acc ^ cols[i]
            size = depth + 1
            if size >= 3:
                j = runs - 2 * cur.bit_count()
                if j:  # the key of `_cell_keys`
                    key = size * (runs + 1) + runs - abs(j)
                    tally[key] = tally.get(key, 0) + 1
            if size < max_len:
                walk(i + 1, size, cur)

    walk(0, 0, 0)
    return _scan_spectrum(tally, runs)


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


def _column_gram(d: BinaryDesign) -> np.ndarray:
    """int64 j of every column pair: the Gram matrix of the columns,
    summed 2^16 runs at a time, so the int64 copy of the cells stays
    one block."""
    gram = np.zeros((d.factors, d.factors), dtype=np.int64)
    for lo in range(0, d.runs, _MASK_RUNS):
        rows = d.cells[lo:lo + _MASK_RUNS].astype(np.int64)
        gram += rows.T @ rows
    return gram


def duplicated_column_pairs(d: BinaryDesign) -> list[tuple[int, int, int]]:
    """Fully aliased 1-based column pairs (i, j, sign): the words of
    length 2 with rho = 1, part of A_2, which the reports (from A_3 on)
    leave out."""
    gram = _column_gram(d)
    pairs = np.argwhere(np.triu(np.abs(gram) == d.runs, 1)).tolist()
    return [(i + 1, j + 1, 1 if gram[i, j] > 0 else -1) for i, j in pairs]
