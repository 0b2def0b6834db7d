"""Z4 arithmetic, the Gray map, and construction of two-level designs.

A design is generated by an n x (n+p) matrix G = (V, I_n) over
Z4 = {0,1,2,3}.  The 4^n codewords t @ G (mod 4) are mapped entrywise
through the Gray map to give a 2^(2n) x (2n+2p) matrix over {+1,-1}:
each quaternary symbol becomes a pair of binary columns, with the p
columns of V first and the n identity columns after them.
"""

from __future__ import annotations

import io
import itertools
import json
import re
from dataclasses import dataclass

import numpy as np

LEE_WEIGHTS = (0, 1, 2, 1)

_Z4 = frozenset(range(4))

# Gray images of 0,1,2,3 in order.
_GRAY = ((1, 1), (1, -1), (-1, -1), (-1, 1))

MAX_N = 12  # 2^(2*12) = 16.7M rows is the largest design worth materializing


class BudgetExceeded(RuntimeError):
    """A requested materialization or scan is over the resource guard."""


def _require_ints(what: str, values) -> None:
    """Only genuine ints: a bool or a float is an input error."""
    if set(map(type, values)) <= {int}:
        return
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{what} must be integers, got {x!r}")


def lee_weight(x: int) -> int:
    """Lee weight of a Z4 element: 0,1,2,1 for 0,1,2,3."""
    if x not in (0, 1, 2, 3):
        raise ValueError(f"not a Z4 element: {x!r}")
    return LEE_WEIGHTS[x]


def gray_map(x: int) -> tuple[int, int]:
    """Map one Z4 symbol to its pair of +/-1 levels."""
    if x not in (0, 1, 2, 3):
        raise ValueError(f"not a Z4 element: {x!r}")
    return _GRAY[x]


@dataclass(frozen=True)
class GeneratorSpec:
    """The n x p quaternary matrix V; the identity block I_n is implied."""

    n: int
    p: int
    V: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _require_ints("n and p", (self.n, self.p))
        if self.n < 1 or self.p < 1:
            raise ValueError(f"n and p must be positive, got n={self.n}, p={self.p}")
        V = tuple(tuple(row) for row in self.V)
        if len(V) != self.n or any(len(row) != self.p for row in V):
            raise ValueError(f"V must be {self.n}x{self.p}")
        flat = [x for row in V for x in row]
        # one set test each over all of V; a per-row loop costs more than
        # the per-item checks on short rows, so it runs only on bad input,
        # to name the first bad entry row by row (types before range)
        if not (set(map(type, flat)) <= {int} and set(flat) <= _Z4):
            for row in V:
                _require_ints("V entries", row)
                for x in row:
                    if x not in _Z4:
                        raise ValueError(f"V entries must be in 0..3, "
                                         f"got {x!r}")
        object.__setattr__(self, "V", V)


@dataclass(frozen=True)
class BinaryDesign:
    runs: int
    factors: int
    cells: np.ndarray  # runs x factors, entries +1/-1, int8


@dataclass(frozen=True)
class FrequencyVector:
    """Counts of each Z4 row pattern of V, indexed by base-4 value."""

    p: int
    counts: tuple[int, ...]

    def __post_init__(self):
        _require_ints("p and the counts", (self.p, *self.counts))
        if self.p < 1:
            raise ValueError(f"p must be positive, got p={self.p}")
        if len(self.counts) != 4 ** self.p:
            raise ValueError(f"need 4^{self.p} counts, got {len(self.counts)}")
        if min(self.counts) < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def n(self) -> int:
        return sum(self.counts)


#: bit offset per base-4 digit, most significant first (p digits: the last p)
_SHIFTS = 2 * np.arange(31, -1, -1)


def cell_digits(index, p: int) -> np.ndarray:
    """The base-4 cell codec: the (..., p) digits of cell indexes, most
    significant first, the order of the frequency-vector cells.  Indexes
    are int64, so p is at most 31."""
    digits = np.asarray(index)[..., None] >> _SHIFTS[len(_SHIFTS) - p:]
    digits &= 3
    return digits


def cell_index(digits) -> np.ndarray:
    """Inverse of `cell_digits`: the cell index of (..., p) digits."""
    digits = np.asarray(digits)
    return digits @ (1 << _SHIFTS[len(_SHIFTS) - digits.shape[-1]:])


def codewords(g: GeneratorSpec) -> np.ndarray:
    """All 4^n codewords t @ (V, I_n) mod 4, ordered by base-4 value of t,
    as uint8 (t @ V may wrap mod 256, which keeps it mod 4)."""
    if g.n > MAX_N:
        raise BudgetExceeded(
            f"n={g.n} exceeds the materialization cap of {MAX_N}; "
            "use the closed-form path for larger generators")
    # t's digits one column at a time, from a uint32 index (4^12 = 2^24),
    # so no (4^n, n) int64 digit array is ever made
    index = np.arange(4 ** g.n, dtype=np.uint32)
    words = np.empty((len(index), g.p + g.n), dtype=np.uint8)
    digit = np.empty_like(index)
    for j in range(g.n):
        np.right_shift(index, 2 * (g.n - 1 - j), out=digit)
        digit &= 3
        words[:, g.p + j] = digit
    V = np.array(g.V, dtype=np.uint8)
    np.matmul(words[:, g.p:], V, out=words[:, :g.p])
    words[:, :g.p] &= 3
    return words


def build_design(g: GeneratorSpec) -> BinaryDesign:
    """Gray image of the full code: 2^(2n) runs, 2(n+p) factors."""
    words = codewords(g)
    # each digit's pair of int8 levels, gathered as one int16
    pairs = np.array(_GRAY, dtype=np.int8).view(np.int16)[:, 0]
    cells = pairs[words].view(np.int8)
    return BinaryDesign(*cells.shape, cells)


def frequency_vector(g: GeneratorSpec) -> FrequencyVector:
    # fromiter reads the nested tuples about twice as fast as np.array
    V = np.fromiter(itertools.chain.from_iterable(g.V), np.int64, g.n * g.p)
    counts = np.bincount(cell_index(V.reshape(g.n, g.p)), minlength=4 ** g.p)
    return FrequencyVector(p=g.p, counts=tuple(counts.tolist()))


def generator_for_frequency(f: FrequencyVector) -> GeneratorSpec:
    """A witness V realizing F: the sorted multiset of row patterns."""
    rows = cell_digits(np.repeat(np.arange(4 ** f.p), f.counts), f.p)
    return GeneratorSpec(len(rows), f.p, tuple(map(tuple, rows.tolist())))


# ---------------------------------------------------------------- file I/O

def load_generator(path: str) -> GeneratorSpec:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"generator file {path} nests too deeply: {exc}")
    try:
        return GeneratorSpec(n=data["n"], p=data["p"],
                             V=tuple(tuple(row) for row in data["V"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"generator file {path} needs n, p and an n x p V: {exc}")


def save_generator(g: GeneratorSpec, path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"n": g.n, "p": g.p, "V": [list(r) for r in g.V]}, fh)
        fh.write("\n")


#: the sign byte of a cell's text, indexed by cell > 0
_SIGN = np.frombuffer(b"-+", np.uint8)

#: runs per block of design text: about 1 MB of text at 26 factors
_TEXT_BLOCK = 1 << 14


def design_to_text(d: BinaryDesign, write=None) -> str | None:
    r"""The design text of `d`: a `runs=R factors=K` header line, then one
    line per run of its cells as comma-separated "+1"/"-1".  It is made a
    block of runs at a time in one buffer of lines "s1,s1,...,s1\n",
    whose sign bytes s each block looks up from cell > 0.  With `write`,
    each block is passed to it as it is made and None is returned;
    without, the blocks are joined."""
    if write is None:
        blocks = []
        design_to_text(d, blocks.append)
        return "".join(blocks)
    write(f"runs={d.runs} factors={d.factors}\n")
    if not d.factors:
        write("\n" * len(d.cells))
        return None
    lines = np.empty((min(len(d.cells), _TEXT_BLOCK), d.factors, 3), np.uint8)
    lines[...] = np.frombuffer(b"+1,", np.uint8)
    lines[:, -1, -1] = ord("\n")
    for start in range(0, len(d.cells), _TEXT_BLOCK):
        positive = d.cells[start:start + _TEXT_BLOCK] > 0
        text = lines[:len(positive)]
        np.take(_SIGN, positive.view(np.uint8), out=text[..., 0])
        write(str(text, "ascii"))
    return None


def design_from_text(text: str) -> BinaryDesign:
    r"""Parse design text: what `design_to_text` writes, with LF or CRLF
    line ends and trailing blank lines.  The body is read in one `loadtxt`
    call into int8, with each "\r" as a space, and each character past
    ASCII, or "\x1c".."\x1f" (white space to loadtxt, not to `int()`), as
    its escape, which no cell reads.  A cell other than +1 or -1 (an
    ASCII decimal integer, white space about it), or a ragged or blank
    line, is a `ValueError` of one line that names its 1-based run."""
    head, _, body = text.strip().partition("\n")
    header = head.split()
    try:
        runs = int(header[0].split("=")[1])
        factors = int(header[1].split("=")[1])
    except (IndexError, ValueError):
        raise ValueError(f"bad design header: {head!r}")
    if "\n\n" in body or body.startswith("\n"):
        run = body.count("\n", 0, ("\n" + body).index("\n\n")) + 1
        raise ValueError(f"design body has a blank line: run {run}")
    for c in "\x1c\x1d\x1e\x1f":  # white space to loadtxt alone
        body = body.replace(c, repr(c)[1:-1])
    try:  # ASCII bytes: a StringIO would hold four bytes a character
        cells = np.loadtxt(io.BytesIO(body.replace("\r", " ").encode(
            "ascii", "backslashreplace")), delimiter=",", dtype=np.int8,
            ndmin=2, comments=None) if body else np.empty(0)  # "" warns
    except ValueError as exc:  # its rows: a bad cell's from 0, ragged from 1
        why = re.sub(r"row (\d+),", lambda m: f"run {int(m[1]) + 1},",
                     str(exc).partition("; use `usecols`")[0])
        raise ValueError("design rows must be +1 or -1: "
                         + why.replace("at row", "at run")) from None
    if cells.shape != (runs, factors):
        raise ValueError(f"design body {cells.shape} does not match header "
                         f"({runs}, {factors})")
    if not np.all(np.abs(cells) == 1):
        run, col = np.argwhere(np.abs(cells) != 1)[0].tolist()
        raise ValueError(f"design rows must be +1 or -1: {cells[run, col]} "
                         f"at run {run + 1}, column {col + 1}")
    return BinaryDesign(runs=runs, factors=factors, cells=cells)
