"""Closed-form aliasing analysis and frequency-vector search.

One closed form, the pass over the dual words (`_dual_words`), turns a
frequency vector straight into the word spectrum without ever
materializing the design; `analyze` and `search` read it, and
`periodic_extend` reads its paper's p = 3 form, K and A.  Every result
here can be cross-checked against the subset scan in `jchar`;
`analyze(method="both")` does exactly that.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt

import numpy as np

from .equations import (MAX_P, _digits, _require_p, canonical_wordtypes,
                        parity_classes)
from .jchar import (BudgetExceeded, DesignSummary, WordSpectrum, _popcount,
                    spectrum_bruteforce, summarize, word_length_limit)
from .z4 import (LEE_WEIGHTS, FrequencyVector, GeneratorSpec, _require_ints,
                 build_design, cell_digits, cell_index, frequency_vector,
                 generator_for_frequency)

#: refuse searches priced above this much work: the column operations
#: applied to canonicalize every multiset of pair classes (search(6, 3)
#: prices at 1.8e8 and ranks in well under a minute; search(7, 3) at 1.1e9)
WORK_BUDGET = 2 * 10 ** 8

#: array cells per numpy step of search: images of count rows when it
#: grows the orbits, and table sums with their length counts when it
#: scores them
_STEP_CELLS = 2 ** 18

#: the largest n (the sum of F, V's rows) for which the closed form's
#: int64 arithmetic is exact at every p up to MAX_P: its widest product
#: is a packed key L * s + e, with s = 2n + 2p + 1 in `_dual_keys` and at
#: most that in the sorted tally of `_dual_cells`: it needs s^2 < 2^63
_MAX_N = (isqrt(2 ** 63 - 1) - 2 * MAX_P - 1) // 2


class PreconditionError(ValueError):
    """The paper's p = 3 closed form does not cover this frequency vector."""


class SpectrumMismatch(RuntimeError):
    """Closed form and subset scan disagree; always a bug somewhere."""


def _pattern(digits) -> np.ndarray:
    """The parity pattern of each row of Z4 digits: the int whose bit i
    is the parity of digit i."""
    digits = np.asarray(digits)
    return (digits & 1) @ (1 << np.arange(digits.shape[-1]))


#: parity patterns whose frequency mass must be positive for the
#: paper's p = 3 closed form: one even position, the other two odd
_PRECONDITION_PARITIES = ((1, 1, 0), (1, 0, 1), (0, 1, 1))

#: their columns in a p = 3 table sum (see `_cell_terms`)
_PRECONDITION_COLUMNS = 63 + _pattern(_PRECONDITION_PARITIES)


@functools.cache
def _cell_terms(p: int) -> np.ndarray:
    """(4^p, 4^p - 1 + 2^p) uint8, what each cell v adds to the dual pass
    as a row of V: Lee(v.w mod 4) to the dual word (w, -Vw) of every
    nonzero w (column w - 1), then one to the mass on v's parity pattern
    (see `_dual_tables`)."""
    digits = _digits(p)
    lee = np.array(LEE_WEIGHTS, dtype=np.uint8)[digits @ digits[1:].T & 3]
    return np.hstack([lee, _pattern(digits)[:, None] == np.arange(2 ** p)],
                     dtype=np.uint8)


def _cell_sum(f: FrequencyVector) -> np.ndarray:
    """The one evaluation of f, its F-weighted sum of `_cell_terms` rows
    over its nonzero cells: K = C F, A = B F, the p = 3 preconditions and
    the dual pass are all read off it."""
    _require_p(f.p)
    if f.n > _MAX_N:
        raise ValueError(f"the closed form's int64 arithmetic is exact for "
                         f"F summing to at most {_MAX_N:,}; this F sums to "
                         "more")
    counts = np.asarray(f.counts, dtype=np.int64)
    nonzero = np.flatnonzero(counts)
    return np.einsum("vw,v->w", _cell_terms(f.p)[nonzero], counts[nonzero],
                     dtype=np.int64)


@functools.cache
def _system_columns(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the paper's system reads a table sum: the column w - 1 of
    each canonical wordtype w (K), and dot(u, pi) over the parity
    patterns u, for each parity class pi (A = mass @ it); and |pi|, the
    odd positions of each class, in A_order."""
    kinds = cell_index(np.array(canonical_wordtypes(p))) - 1
    classes = _pattern(parity_classes(p))
    size, dot = _dual_tables(p)[2:4]
    return kinds, dot[:, classes], size[classes]


@dataclass(frozen=True)
class TheoryEvaluation:
    """Word counts (one per canonical wordtype) and parity-class sums."""

    p: int
    k_values: tuple[int, ...]
    a_values: tuple[int, ...]


def evaluate(f: FrequencyVector) -> TheoryEvaluation:
    return _evaluation(_cell_sum(f), f.p)


def _evaluation(terms: np.ndarray, p: int) -> TheoryEvaluation:
    kinds, dot, _ = _system_columns(p)
    return TheoryEvaluation(p, tuple(terms[kinds].tolist()),
                            tuple((terms[4 ** p - 1:] @ dot).tolist()))


def precondition_sums(f: FrequencyVector) -> dict[tuple[int, ...], int]:
    """Frequency mass on each of the three mixed parity patterns."""
    if f.p != 3:
        raise ValueError("preconditions are defined for p = 3 only")
    masses = _cell_sum(f)[_PRECONDITION_COLUMNS].tolist()
    return dict(zip(_PRECONDITION_PARITIES, masses))


def preconditions_met(f: FrequencyVector) -> bool:
    return all(v > 0 for v in precondition_sums(f).values())


def aliasing_exponent(q: int, a: int) -> int:
    """Exponent e with rho = 2^-e for a class with q odd positions and
    parity-row sum a.  Matches floor((a + delta) / 2) with the frozen
    delta row for q in {1, 2}; for q = 3 that shortcut undercounts by 1
    (its delta would have to be 2), so e is derived from q directly.
    """
    return (q - 1 + a) // 2


def theory_spectrum(f: FrequencyVector) -> WordSpectrum:
    """Word spectrum of the induced design, straight from f, where the
    paper's p = 3 closed form applies (its preconditions hold).

    Each of the 7 two-sided wordtype classes with odd entries carries
    8 * 4^e words of aliasing index 2^-e, spread evenly (2 * 4^e each)
    over its 4 canonical wordtypes at length k_w + Lee(w); the 7 fully
    even wordtypes contribute one completely aliased word each.  The
    spectrum is the runs of one sorted tally of the dual pass, which
    agrees with that form (`_dual_cells`); no GWLP is built.
    """
    return _spectrum(_dual_cells(_require_preconditions(f), 3, 2 * f.n + 6))


def _require_preconditions(f: FrequencyVector) -> np.ndarray:
    """f's table sum, once f is known to meet the p = 3 preconditions."""
    if f.p != 3:
        raise ValueError(
            f"the paper's closed form covers p = 3 only, got p = {f.p}")
    terms = _cell_sum(f)
    bad = [pi for pi, v in zip(_PRECONDITION_PARITIES,
                               terms[_PRECONDITION_COLUMNS]) if v == 0]
    if bad:
        names = ", ".join("".join(map(str, pi)) for pi in bad)
        raise PreconditionError(
            f"no frequency mass on parity pattern(s) {names}; the "
            "paper's closed form does not apply here (analyze reads "
            "every F through the dual closed form)")
    return terms


def class_rhos(f: FrequencyVector) -> tuple[Fraction, ...]:
    """Aliasing index per odd parity class, aligned with A_order, where
    the paper's p = 3 closed form applies (its preconditions hold)."""
    return _class_rhos(_evaluation(_require_preconditions(f), 3))


def _class_rhos(ev: TheoryEvaluation) -> tuple[Fraction, ...]:
    size = _system_columns(3)[2]
    return tuple(map(_dyadic, aliasing_exponent(size, ev.a_values).tolist()))


@functools.lru_cache(maxsize=1024)
def _dyadic(e: int) -> Fraction:
    """The aliasing index 2^-e, one shared Fraction per exponent."""
    return Fraction(1, 1 << e)


@functools.lru_cache(maxsize=1024)
def _whole(c: int) -> Fraction:
    """A GWLP entry A_L = c, one shared Fraction per count."""
    return Fraction(c)


@functools.cache
def _dual_tables(p: int) -> tuple[np.ndarray, ...]:
    """The per-p constants of the dual pass, over the parity patterns
    (`_pattern`): Lee(w) and the pattern of each nonzero w; |pi| (int64),
    dot(u, pi) and [delta inside pi] over the patterns; and per u, flat
    over (pi, delta), [dot(u, pi) even, dot(u, delta) odd] and
    dot(u, pi) dot(u, delta), each for one matmul by the mass."""
    digits = _digits(p)[1:]
    pats = np.arange(2 ** p)
    dot = (_popcount(pats[:, None] & pats) & 1).astype(np.int64)
    return (np.take(LEE_WEIGHTS, digits).sum(axis=1), _pattern(digits),
            _popcount(pats).astype(np.int64), dot,
            pats & ~pats[:, None] == 0,
            ((1 - dot)[:, :, None] * dot[:, None]).reshape(len(pats), -1),
            (dot[:, :, None] * dot[:, None]).reshape(len(pats), -1))


def _row_counts(values: np.ndarray, width: int) -> np.ndarray:
    """(rows, width): how often each of 0..width-1 occurs in each row of
    a (rows, m) array of ints in that range."""
    offsets = values + width * np.arange(len(values))[:, None]
    return np.bincount(offsets.ravel(), minlength=width * len(values)
                       ).reshape(-1, width)


def _half_excess(excess: np.ndarray) -> np.ndarray:
    """e = (k - d - r) / 2, the exponent of rho = 2^-e; an odd or a
    negative k - d - r would make rho non-dyadic or above 1."""
    # one int64 mask: the sign bit and the low bit
    if (excess & (-2 ** 63 | 1)).any():
        raise AssertionError(
            "non-dyadic aliasing index in a quaternary-code design")
    return excess >> 1


def _dual_words(terms: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, e), each of shape (batch, 4^p - 1), for a batch of table sums
    (`_cell_terms` rows summed over V's rows): column w - 1 holds the dual
    word (w, -Vw) of each nonzero w in Z4^p.

    That word has Lee length L_w = Lee(w) + sum_v F_v Lee(v.w), and
    stands for 2^(k-d-r) words of that length in the binary design, each
    of aliasing index 2^-e with e = (k - d - r) / 2 (a binary Gauss sum;
    Hammons, Kumar, Calderbank, Sloane and Sole, IEEE Trans. IT 1994).
    With pi = w mod 2 and m_u the mass on the cells of parity u:
    k = |pi| + sum_u m_u dot(u, pi); d is the dimension of D_pi, the
    delta inside pi with dot(u, delta) even for every u of mass with
    dot(u, pi) even; and r that of the radical on D_pi of the form
    dot(delta, delta') + sum_u m_u dot(u, delta) dot(u, delta') mod 2.
    So the GWLP is A_k = #{w != 0 : L_w = k}.
    """
    lee, pattern, size, dot, within, leaves, pairs = _dual_tables(p)
    shape = (len(terms), len(dot), len(dot))
    lengths, mass = lee + terms[:, :len(lee)], terms[:, len(lee):]
    k = size + mass @ dot
    # delta leaves D_pi when a cell u of mass has dot(u, pi) even and
    # dot(u, delta) odd
    inside = within & ((mass @ leaves).reshape(shape) == 0)
    form = (dot + ((mass & 1) @ pairs).reshape(shape)) & 1
    radical = inside & (inside.astype(np.int64) @ form == 0)
    # spaces of sizes 2^d and 2^r give d + r = popcount(2^d 2^r - 1)
    excess = k - _popcount(inside.sum(axis=2) * radical.sum(axis=2) - 1)
    return lengths, _half_excess(excess)[:, pattern]


def _dual_cells(terms: np.ndarray, p: int, max_len: int
                ) -> list[tuple[int, int, int]]:
    """(L, e, words) per cell of the words 3..max_len long, from one table
    sum: the runs of the sorted keys L * (max_len + 1) + e are the cells,
    in canonical order (L ascending, then rho largest first), and a run
    holds one dual word w per member."""
    lengths, exps = (a[0] for a in _dual_words(terms[None], p))
    keep = (lengths >= 3) & (lengths <= max_len)
    keys = np.sort(lengths[keep] * (max_len + 1) + exps[keep])
    # where each run of equal keys starts, then the end
    bounds = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    ls, es = np.divmod(keys[bounds[:-1]], max_len + 1)
    return list(zip(ls.tolist(), es.tolist(), np.diff(bounds).tolist()))


def _spectrum(cells: list[tuple[int, int, int]]) -> WordSpectrum:
    """Each dual word w of a cell adds 4^e words of index 2^-e."""
    return WordSpectrum(tuple((l, _dyadic(e), c << 2 * e)
                              for l, e, c in cells))


def _dual_spectrum(terms: np.ndarray, p: int, max_len: int, factors: int
                   ) -> tuple[WordSpectrum, DesignSummary]:
    """The spectrum of the words 3..max_len long, and its summary, from one
    table sum (`_dual_cells`): each w adds 1 to A_{L_w}, so A_L is the
    sum of the run counts at L."""
    cells = _dual_cells(terms, p, max_len)
    words = {}
    for l, _, c in cells:
        words[l] = words.get(l, 0) + c
    gwlp = [Fraction(0)] * (factors - 2)
    for l, c in words.items():
        gwlp[l - 3] = _whole(c)
    worst = _dyadic(cells[0][1]) if cells else None
    resolution = cells[0][0] + 1 - worst if cells else None
    return (_spectrum(cells),
            DesignSummary(tuple(gwlp), resolution, worst, max_len))


@dataclass(frozen=True)
class TheoryReport:
    """Everything `analyze` knows about one design."""

    runs: int
    factors: int
    method: str
    k_values: tuple[int, ...]
    a_values: tuple[int, ...]
    rhos: tuple[Fraction, ...]
    spectrum: WordSpectrum
    summary: DesignSummary
    preconditions_met: bool


def analyze(g: GeneratorSpec, method: str = "theory",
            max_length: int | None = None, force: bool = False
            ) -> TheoryReport:
    """Full aliasing report for the design induced by a generator.

    method 'theory' reads the spectrum off the dual closed form
    (`_dual_words`), for every p up to MAX_P, with no preconditions and
    no design built; 'bruteforce' scans column subsets of the built
    design; 'both' runs the two and insists they agree.  The report
    carries the paper's K/A values (empty above MAX_P, where only
    'bruteforce' runs), its class aliasing indices where its p = 3
    preconditions hold, and whether they hold.
    """
    factors = 2 * g.n + 2 * g.p
    max_len = word_length_limit(factors, max_length)
    if method not in ("theory", "bruteforce", "both"):
        raise ValueError(f"unknown method {method!r}")
    if method != "bruteforce" and g.p > MAX_P:
        raise ValueError(f"the closed form covers p up to {MAX_P}, got "
                         f"p = {g.p}; use method 'bruteforce'")

    # F has 4^p cells, and nothing reads it above MAX_P
    terms = _cell_sum(frequency_vector(g)) if g.p <= MAX_P else None
    ev = (TheoryEvaluation(g.p, (), ()) if terms is None
          else _evaluation(terms, g.p))
    ok = bool(terms[_PRECONDITION_COLUMNS].all()) if g.p == 3 else g.p < 3
    rhos = _class_rhos(ev) if g.p == 3 and ok else ()

    theory = (None if method == "bruteforce"
              else _dual_spectrum(terms, g.p, max_len, factors))
    spec, summary = theory or (None, None)
    if method != "theory":
        spec = spectrum_bruteforce(build_design(g), max_len, force=force)
        if not spec.is_dyadic():
            raise AssertionError(
                "non-dyadic aliasing index in a quaternary-code design")
        summary = summarize(spec, factors, max_len)
        if theory is not None:
            _compare_spectra(theory[0], spec)
            if theory[1] != summary:
                raise SpectrumMismatch(f"closed form and subset scan "
                                       f"disagree: {theory[1]} vs {summary}")
    return TheoryReport(4 ** g.n, factors, method, ev.k_values,
                        ev.a_values, rhos, spec, summary, ok)


def _compare_spectra(theory: WordSpectrum, brute: WordSpectrum) -> None:
    if theory.entries == brute.entries:  # both in canonical order
        return
    t = {(l, r): c for l, r, c in theory.entries}
    b = {(l, r): c for l, r, c in brute.entries}
    for key in sorted(set(t) | set(b), key=lambda k: (k[0], -k[1])):
        ct, cb = t.get(key, 0), b.get(key, 0)
        if ct != cb:
            length, rho = key
            raise SpectrumMismatch(
                f"closed form and subset scan disagree at length "
                f"{length}, aliasing index {rho}: {ct} vs {cb} words")


@dataclass(frozen=True)
class PeriodicFamily:
    """A frequency vector, its t-step uniform extension, and the
    predicted resolution data of the extended design."""

    base: FrequencyVector
    t: int
    extended: FrequencyVector
    predicted_r: int
    predicted_rho: Fraction
    predicted_resolution: Fraction


def periodic_extend(f0: FrequencyVector, t: int) -> PeriodicFamily:
    """Add t to every cell except the all-zero one (p = 3).

    Every word count grows by 64t and every parity-class sum by 32t,
    so the shortest word length shifts by 64t while its aliasing index
    picks up a factor 2^-16t (complete words stay completely aliased).
    Both shift identities are re-checked here on the actual vectors.
    The base's shortest length r and aliasing index rho = 2^-e are read
    off its K and A values, with no dual pass: under the preconditions
    the paper's closed form gives each nonzero w the length
    L_w = Lee(w) + K_w and the exponent aliasing_exponent(|pi|, A_pi)
    of its parity pattern pi (0 for a fully even w, whose L_w is at
    least 6), as the dual pass does.  r is the least L_w of 3 or more,
    and e the least exponent at r.
    """
    _require_ints("t", (t,))
    if t < 0:
        raise ValueError("t must be nonnegative")
    terms0 = _require_preconditions(f0)
    ft = FrequencyVector(f0.p, (f0.counts[0],)
                         + tuple(c + t for c in f0.counts[1:]))
    kinds, dot = _system_columns(3)[:2]
    shift = _cell_sum(ft) - terms0
    if (shift[kinds] != 64 * t).any():
        raise AssertionError("word-count shift identity violated")
    if (shift[63:] @ dot != 32 * t).any():
        raise AssertionError("parity-sum shift identity violated")
    # L_w = Lee(w) + K_w and e_w (its pattern's exponent) per nonzero w:
    # the least length r0 of 3 or more, and the least exponent e0 there
    lee, pattern, size, patterns_dot = _dual_tables(3)[:4]
    lengths = lee + terms0[:63]
    exps = np.where(size > 0,
                    aliasing_exponent(size, terms0[63:] @ patterns_dot),
                    0)[pattern]
    r0 = int(lengths[lengths >= 3].min())
    e0 = int(exps[lengths == r0].min())
    r = 64 * t + r0
    rho = _dyadic(16 * t + e0 if e0 else 0)
    return PeriodicFamily(f0, t, ft, r, rho, r + 1 - rho)


def fixed_point_7(x: Fraction) -> str:
    """Render with exactly 7 decimals, ties to even: the sign, then the
    rounded magnitude (floor division would round a negative x down)."""
    scaled = abs(x) * 10 ** 7
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r > scaled.denominator or (2 * r == scaled.denominator and q % 2):
        q += 1
    return f"{'-' if x < 0 else ''}{q // 10 ** 7}.{q % 10 ** 7:07d}"


@functools.cache
def _pair_classes(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair classes {c, -c} of the nonzero cells and the column group's
    action on them.

    Returns the low and high cell of each class (equal for a self-paired,
    all-even cell), classes ordered by low cell, and the moves: the
    distinct class permutations made by a column operation, a permutation
    of V's columns followed by negation of some of them.  Row g holds the
    class to which move g sends each class; the moves are closed under
    inverses, so `counts[moves]` holds every image of a row of class
    counts.  Both symmetries leave the spectrum unchanged: negating a row
    of V swaps one Gray column pair, and so does negating a column, while
    permuting columns permutes the pairs.
    """
    digits = cell_digits(np.arange(4 ** p), p)
    neg = cell_index(-digits % 4)
    low = np.array([c for c in range(1, 4 ** p) if c <= neg[c]])
    cls = np.empty(4 ** p, dtype=np.intp)
    cls[low] = cls[neg[low]] = np.arange(len(low))
    perms = np.array(list(itertools.permutations(range(p))))
    signs = np.array(list(itertools.product((1, 3), repeat=p)))
    moved = cell_index(digits[low][:, perms][:, :, None] * signs % 4)
    return low, neg[low], _distinct_rows(cls[moved.reshape(len(low), -1).T])


def _row_order(rows: np.ndarray) -> np.ndarray:
    """The stable order that sorts a 2-D array's rows lexicographically,
    first column first (lexsort sorts on its last key first)."""
    return np.lexsort(rows.T[::-1])


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array in ascending lexicographic order,
    as `np.unique(rows, axis=0)` gives them; that call would import
    numpy.ma on first use."""
    rows = rows[_row_order(rows)]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[first]


def search_work(n: int, p: int) -> int:
    """The work `search` is priced at: the multisets of n pair classes,
    each canonicalized through the p! * 2^p column operations."""
    return comb(n + len(_pair_classes(p)[0]) - 1, n) * factorial(p) << p


def _orbit_representatives(n: int, p: int) -> np.ndarray:
    """(orbits, classes): the greatest row of pair-class counts in each
    orbit of the multisets of n classes under the column group, counts
    compared from the first class on.  Such a row less one of its largest
    class is the greatest of its own orbit (canonical augmentation; McKay,
    J. Algorithms 26, 1998), so rows grow one class at a time."""
    moves = _pair_classes(p)[2]
    # the least signed type that holds both n and -n
    grow = np.eye(moves.shape[1], dtype=np.min_scalar_type(-n - 1))
    rows = np.zeros_like(grow[:1])
    step = max(1, _STEP_CELLS // moves.size // len(grow))
    for size in range(n):
        kept = []
        for lo in range(0, len(rows), step):
            parents = rows[lo:lo + step]
            # each parent plus one class no smaller than its largest
            kids = (parents[:, None] + grow)[
                parents.cumsum(axis=1, dtype=grow.dtype) == size]
            # per kid and move: the first nonzero entry of image - kid, or
            # 0 when the move fixes it; a kid is kept if none is positive
            diff = kids[:, moves] - kids[:, None]
            first = np.take_along_axis(
                diff, (diff != 0).argmax(axis=2)[..., None], axis=2)
            kept.append(kids[(first <= 0).all(axis=(1, 2))])
        rows = np.concatenate(kept)
    return rows


def _ranked_orbits(n: int, p: int, criterion: str
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The orbits' keys (`_dual_keys`) in key order, and their rows of
    class counts in that order, ties kept in orbit order; every member of
    an orbit shares the key of its representative, whose table sum is its
    class counts times the `_cell_terms` rows of the classes' low cells."""
    table = _cell_terms(p)[_pair_classes(p)[0]].astype(np.int64)
    reps = _orbit_representatives(n, p)
    step = max(1, _STEP_CELLS // (table.shape[1] + 2 * n))
    keys = np.concatenate([_dual_keys(reps[lo:lo + step] @ table, n, p,
                                      criterion)
                           for lo in range(0, len(reps), step)])
    order = _row_order(keys.reshape(len(keys), -1))
    return keys[order], reps[order]


def _orbit_frequencies(counts: tuple[int, ...] | np.ndarray, p: int,
                       limit: int | None = None) -> list[tuple[int, ...]]:
    """Every frequency vector in the orbit of a row of pair-class counts,
    F ascending, or only the first `limit` of them.  Each image under the
    column group puts m rows on a class {c, -c}, which row negations split
    j : m - j between its cells (m + 1 ways, one when c = -c); member t of
    an image reads its j per class off t in that mixed radix."""
    low, high, moves = _pair_classes(p)
    mass = _distinct_rows(np.asarray(counts, dtype=np.int64)[moves])
    radix = np.where(low != high, mass + 1, 1)
    sizes = radix.prod(axis=1)
    image = np.repeat(np.arange(len(mass)), sizes)
    t = np.arange(len(image)) - (np.cumsum(sizes) - sizes)[image]
    stride = np.cumprod(radix, axis=1) // radix
    j = t[:, None] // stride[image] % radix[image]
    fmat = np.zeros((len(image), 4 ** p), dtype=np.int64)
    fmat[:, low] = mass[image] - j
    fmat[:, high] += j
    return list(map(tuple, fmat[_row_order(fmat)][:limit].tolist()))


def _best_frequencies(n: int, p: int, criterion: str, top: int
                      ) -> list[FrequencyVector]:
    """The `top` least (key, F): whole orbits are expanded in key order,
    each into at most `top` frequency vectors, until they hold `top`,
    with every orbit tied with the last one."""
    keyed = []
    for key, counts in zip(*_ranked_orbits(n, p, criterion)):
        key = tuple(np.atleast_1d(key).tolist())
        if len(keyed) >= top and key != keyed[-1][0]:
            break
        keyed += ((key, f) for f in _orbit_frequencies(counts, p, top))
    return [FrequencyVector(p, f) for _, f in heapq.nsmallest(top, keyed)]


def search(n: int, p: int, criterion: str = "max_resolution",
           top: int = 1, force: bool = False
           ) -> list[tuple[FrequencyVector, TheoryReport]]:
    """Rank all frequency vectors with f_0 = 0 summing to n.

    Candidates are scored by generalized resolution (maximize) or by
    the GWLP vector (minimize lexicographically); exact ties fall back
    to the frequency-vector encoding, ascending.  The spectrum depends
    only on the mass on each pair of cells {c, -c}, and is kept by every
    permutation and negation of V's columns, so candidates are scored
    one orbit at a time: one row of pair-class counts per orbit under the
    column group (758 orbits for the 43,680 candidates of search(3, 3),
    5,694 for the 720,720 of search(4, 3)).  Each is scored by the dual
    closed form, from the Lee lengths and Gauss-sum exponents of its
    4^p - 1 nonzero dual words (`_dual_keys`), read off its table sum.
    Only the orbits that reach the top `top` are expanded into frequency
    vectors, and only the winners' reports are computed, by
    `analyze(..., "theory")`: no design is built at all.

    The work is priced before any scoring (`search_work`: pair-class
    multisets times the p! * 2^p column operations, an admission rule
    rather than the work done) and refused above `WORK_BUDGET` unless
    forced; search(6, 3) is within it.
    """
    _require_ints("n, p and top", (n, p, top))
    if criterion not in ("max_resolution", "gma"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if top < 1:
        raise ValueError("top must be positive")
    if n < 1:
        raise ValueError(f"n must be positive, got n = {n}")
    if not 1 <= p <= 3:
        raise ValueError(f"search covers p in 1..3, got p = {p}")
    work = search_work(n, p)
    if work > WORK_BUDGET and not force:
        raise BudgetExceeded(
            f"search over n = {n}, p = {p} is priced at {work:.2e} "
            f"column operations, over the budget {WORK_BUDGET:.0e}; pass "
            "force to run anyway")
    return [(f, analyze(generator_for_frequency(f), method="theory"))
            for f in _best_frequencies(n, p, criterion, top)]


def _dual_keys(terms: np.ndarray, n: int, p: int,
               criterion: str) -> np.ndarray:
    """Exact minimize-oriented ranking key per row of a (batch,
    4^p - 1 + 2^p) array of table sums, each that of an F summing to n,
    from the dual pass.  For max_resolution one int64, -(L * span + e)
    with span = 2n + 2p + 1: L the least word length and 2^-e the
    largest aliasing index at L, so that deeper resolution sorts first.
    For gma a row of the GWLP A_3.., each A_k the number of nonzero w
    with L_w = k (at most 4^p - 1, so uint8 up to p = 4), compared
    ascending."""
    span = 2 * n + 2 * p + 1
    lengths, e = _dual_words(terms, p)
    if criterion == "gma":
        return _row_counts(lengths, span)[:, 3:].astype(
            np.min_scalar_type(4 ** p - 1))
    # e <= L / 2 < span, so the least L * span + e is the least L and the
    # least e at it; a design with no word of length 3 or more gets L = span
    return -np.where(lengths >= 3, lengths * span + e,
                     span * span).min(axis=1)
