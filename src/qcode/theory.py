"""Closed-form aliasing analysis and frequency-vector search.

The closed form turns a frequency vector straight into word counts,
aliasing exponents and the word spectrum, without ever materializing
the design.  Every result here can be cross-checked against the subset
scan in `jchar`; `analyze(method="both")` does exactly that.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .equations import EquationSystem, build_system, cells
from .jchar import (BudgetExceeded, DesignSummary, WordSpectrum,
                    _popcount, _size_profiles, spectrum_bruteforce,
                    summarize)
from .z4 import (FrequencyVector, GeneratorSpec, _codewords, _gray_cells,
                 build_design, frequency_vector, generator_for_frequency)

#: refuse searches over more candidate frequency vectors than this
CANDIDATE_BUDGET = 10 ** 8


class PreconditionError(ValueError):
    """The closed-form spectrum does not cover this frequency vector."""


class SpectrumMismatch(RuntimeError):
    """Closed form and subset scan disagree; always a bug somewhere."""


#: parity patterns whose frequency mass must be positive for the
#: closed-form spectrum: one even position, the other two odd
_PRECONDITION_PARITIES = ((1, 1, 0), (1, 0, 1), (0, 1, 1))

#: one row per precondition pattern: 1 on the p = 3 cells of that parity
_PRECONDITION_MASK = np.array(
    [[tuple(x % 2 for x in pat) == pi for pat in cells(3)]
     for pi in _PRECONDITION_PARITIES], dtype=np.int64)

#: the p = 3 closed form's tables, built once for analyze and search
_SYSTEM3 = build_system(3)
_C3 = np.array(_SYSTEM3.c_matrix(), dtype=np.int64)
_B3 = np.array(_SYSTEM3.b_matrix(), dtype=np.int64)
_CONSTANTS3 = np.array(_SYSTEM3.constants, dtype=np.int64)
#: odd positions q per parity class, aligned with A_order
_Q3 = np.array([sum(pi) for pi in _SYSTEM3.a_order], dtype=np.int64)
#: parity class of each canonical wordtype (-1 when fully even)
_CLASS3 = np.array([_SYSTEM3.a_order.index(tuple(x % 2 for x in w))
                    if any(x % 2 for x in w) else -1
                    for w in _SYSTEM3.k_order])
_ODD3 = _CLASS3 >= 0


@dataclass(frozen=True)
class TheoryEvaluation:
    """Word counts (one per canonical wordtype) and parity-class sums."""

    p: int
    k_values: tuple[int, ...]
    a_values: tuple[int, ...]


def evaluate(f: FrequencyVector, system: EquationSystem | None = None
             ) -> TheoryEvaluation:
    sysm = system or build_system(f.p)
    if sysm.p != f.p:
        raise ValueError(f"system is for p={sysm.p}, vector for p={f.p}")
    fv = np.asarray(f.counts, dtype=np.int64)
    k = np.asarray(sysm.c_matrix(), dtype=np.int64) @ fv
    a = np.asarray(sysm.b_matrix(), dtype=np.int64) @ fv
    return TheoryEvaluation(f.p, tuple(int(x) for x in k),
                            tuple(int(x) for x in a))


def parity_class_sums(f: FrequencyVector) -> dict[tuple[int, ...], int]:
    return dict(zip(build_system(f.p).a_order, evaluate(f).a_values))


def precondition_sums(f: FrequencyVector) -> dict[tuple[int, ...], int]:
    """Frequency mass on each of the three mixed parity patterns."""
    if f.p != 3:
        raise ValueError("preconditions are defined for p = 3 only")
    masses = _PRECONDITION_MASK @ np.asarray(f.counts, dtype=np.int64)
    return dict(zip(_PRECONDITION_PARITIES, masses.tolist()))


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
    """Word spectrum of the induced design, straight from f (p = 3).

    Each of the 7 two-sided wordtype classes with odd entries carries
    8 * 4^e words of aliasing index 2^-e, spread evenly (2 * 4^e each)
    over its 4 canonical wordtypes at length k_w + Lee(w); the 7 fully
    even wordtypes contribute one completely aliased word each.
    """
    _require_preconditions(f)
    return _spectrum(evaluate(f))


def _require_preconditions(f: FrequencyVector) -> None:
    if f.p != 3:
        raise ValueError(
            f"closed-form spectrum covers p = 3 only, got p = {f.p}")
    bad = [pi for pi, v in precondition_sums(f).items() if v == 0]
    if bad:
        names = ", ".join("".join(map(str, pi)) for pi in bad)
        raise PreconditionError(
            f"no frequency mass on parity pattern(s) {names}; the "
            "closed form does not apply here, fall back to the "
            "brute-force oracle (method 'bruteforce')")


def _lengths_exponents(k: np.ndarray, a: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form word length and aliasing exponent per canonical p = 3
    wordtype, for K of shape (..., 35) and A of shape (..., 7).  A fully
    even wordtype gets e = 0, since its rho is 1."""
    e = aliasing_exponent(_Q3, a)
    return _CONSTANTS3 + k, np.where(_ODD3, np.take(e, _CLASS3, axis=-1), 0)


def _spectrum(ev: TheoryEvaluation) -> WordSpectrum:
    lengths, exps = _lengths_exponents(ev.k_values, ev.a_values)
    agg: dict[tuple[int, Fraction], int] = {}
    for length, e, odd in zip(lengths.tolist(), exps.tolist(),
                              _ODD3.tolist()):
        key = (length, Fraction(1, 2 ** e))
        agg[key] = agg.get(key, 0) + (2 * 4 ** e if odd else 1)
    return WordSpectrum(tuple((l, r, c) for (l, r), c in agg.items()))


def class_rhos(f: FrequencyVector) -> tuple[Fraction, ...]:
    """Aliasing index per odd parity class, aligned with A_order."""
    return _class_rhos(evaluate(f, build_system(3)))


def _class_rhos(ev: TheoryEvaluation) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, 2 ** e)
                 for e in aliasing_exponent(_Q3, ev.a_values).tolist())


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


def _clip(spec: WordSpectrum, max_len: int) -> WordSpectrum:
    return WordSpectrum(tuple(e for e in spec.entries if e[0] <= max_len))


def analyze(g: GeneratorSpec, method: str = "theory",
            max_length: int | None = None, force: bool = False
            ) -> TheoryReport:
    """Full aliasing report for the design induced by a generator.

    method 'theory' uses the closed form (p = 3; smaller p falls back
    to the exact scan, which is cheap there), 'bruteforce' scans column
    subsets, 'both' runs the two and insists they agree.  The report
    always carries K/A values and whether the closed form applies;
    nothing falls back silently.
    """
    factors = 2 * g.n + 2 * g.p
    max_len = factors if max_length is None else max_length
    if not 3 <= max_len <= factors:
        raise ValueError(f"max_length must be in 3..{factors}")
    if method not in ("theory", "bruteforce", "both"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("theory", "both") and g.p > 3:
        raise ValueError(
            f"no closed form for p = {g.p}; use method 'bruteforce'")

    f = frequency_vector(g)
    ev = evaluate(f)
    ok = preconditions_met(f) if g.p == 3 else g.p < 3
    rhos = _class_rhos(ev) if g.p == 3 and ok else ()

    brute = theory = None
    if method in ("bruteforce", "both"):
        brute = spectrum_bruteforce(build_design(g), max_len, force=force)
        if not brute.is_dyadic():
            raise AssertionError(
                "non-dyadic aliasing index in a quaternary-code design")
    if method in ("theory", "both"):
        if g.p == 3:
            _require_preconditions(f)
            theory = _clip(_spectrum(ev), max_len)
        else:
            # below p = 3 the scan is both reference and fast path
            theory = brute if brute is not None else spectrum_bruteforce(
                build_design(g), max_len, force=force)
    if method == "both":
        _compare_spectra(theory, brute)
    spec = brute if brute is not None else theory
    return TheoryReport(4 ** g.n, factors, method, ev.k_values,
                        ev.a_values, rhos, spec,
                        summarize(spec, factors, max_len), ok)


def _compare_spectra(theory: WordSpectrum, brute: WordSpectrum) -> None:
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
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    _require_preconditions(f0)
    ev0 = evaluate(f0)
    spec0 = _spectrum(ev0)
    ft = FrequencyVector(f0.p, (f0.counts[0],)
                         + tuple(c + t for c in f0.counts[1:]))
    evt = evaluate(ft)
    if any(b - a != 64 * t for a, b in zip(ev0.k_values, evt.k_values)):
        raise AssertionError("word-count shift identity violated")
    if any(b - a != 32 * t for a, b in zip(ev0.a_values, evt.a_values)):
        raise AssertionError("parity-sum shift identity violated")
    r0 = spec0.entries[0][0]
    rho0 = max(r for l, r, _ in spec0.entries if l == r0)
    r = r0 + 64 * t
    rho = Fraction(1) if rho0 == 1 else rho0 / 2 ** (16 * t)
    return PeriodicFamily(f0, t, ft, r, rho, r + 1 - rho)


def fixed_point_7(x: Fraction) -> str:
    """Render with exactly 7 decimals, ties to even."""
    scaled = x * 10 ** 7
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r > scaled.denominator or (2 * r == scaled.denominator and q % 2):
        q += 1
    return f"{q // 10 ** 7}.{q % 10 ** 7:07d}"


def candidate_count(n: int, p: int) -> int:
    return comb(n + 4 ** p - 2, 4 ** p - 2)


def search(n: int, p: int, criterion: str = "max_resolution",
           top: int = 1, force: bool = False
           ) -> list[tuple[FrequencyVector, TheoryReport]]:
    """Rank all frequency vectors with f_0 = 0 summing to n.

    Candidates are scored by generalized resolution (maximize) or by
    the GWLP vector (minimize lexicographically); exact ties fall back
    to the frequency-vector encoding, ascending.  Each candidate goes
    through the closed form whenever it applies and through a batched
    Walsh-Hadamard scan otherwise; both routes produce the same per-size
    profile, and one key builder turns it into the exact ranking key.
    The ranking streams: only the best `top` candidates are kept.
    """
    if criterion not in ("max_resolution", "gma"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if top < 1:
        raise ValueError("top must be positive")
    if n < 1:
        raise ValueError(f"n must be positive, got n = {n}")
    if not 1 <= p <= 3:
        raise ValueError(f"search covers p in 1..3, got p = {p}")
    total = candidate_count(n, p)
    if total > CANDIDATE_BUDGET and not force:
        raise BudgetExceeded(
            f"{total} candidate frequency vectors exceed the budget "
            f"{CANDIDATE_BUDGET:.0e}; pass force to enumerate anyway")

    rows_all = np.fromiter(
        (x for combo in itertools.combinations_with_replacement(
            range(1, 4 ** p), n) for x in combo),
        dtype=np.int64, count=total * n).reshape(total, n)
    keyed = (cand for lo in range(0, total, 4096)
             for cand in _score_batch(rows_all[lo:lo + 4096], n, p,
                                      criterion))
    best = (FrequencyVector(p, counts)
            for _, counts in heapq.nsmallest(top, keyed))
    return [(f, _report_for_frequency(f)) for f in best]


def _report_for_frequency(f: FrequencyVector) -> TheoryReport:
    g = generator_for_frequency(f)
    if f.p == 3 and preconditions_met(f):
        return analyze(g, method="theory")
    return analyze(g, method="bruteforce", force=True)


def _score_batch(rows: np.ndarray, n: int, p: int, criterion: str
                 ) -> list[tuple[tuple, tuple[int, ...]]]:
    """(key, F) per candidate of a batch of sorted cell-index rows."""
    nb = len(rows)
    fmat = np.zeros((nb, 4 ** p), dtype=np.int64)
    np.add.at(fmat, (np.arange(nb)[:, None], rows), 1)
    prof = np.empty((nb, 2 * n + 2 * p - 2), dtype=np.int64)
    rest = np.arange(nb)
    if p == 3:
        ok = (fmat @ _PRECONDITION_MASK.T > 0).all(axis=1)
        prof[ok] = _closed_form_profiles(fmat[ok], n, criterion)
        rest = np.flatnonzero(~ok)
    for lo in range(0, rest.size, 1024):
        sub = rest[lo:lo + 1024]
        prof[sub] = _oracle_profiles(rows[sub], p, criterion)
    return list(zip(_keys(prof, n, p, criterion),
                    map(tuple, fmat.tolist())))


def _closed_form_profiles(fmat: np.ndarray, n: int, criterion: str
                          ) -> np.ndarray:
    """The per-size profile of `jchar._size_profiles`, from the p = 3
    closed form of each F of a (batch, 64) stack: an odd wordtype is
    2 * 4^e words of |j| = runs >> e, an even one a complete word."""
    lengths, e = _lengths_exponents(fmat @ _C3.T, fmat @ _B3.T)
    runs = 4 ** n
    prof = np.zeros((len(fmat), 2 * n + 4), dtype=np.int64)
    at = (np.arange(len(fmat))[:, None], lengths - 3)
    if criterion == "gma":
        np.add.at(prof, at, np.where(_ODD3, 2 * runs * runs, runs * runs))
    else:
        np.maximum.at(prof, at, runs >> e)
    return prof


def _oracle_profiles(rows: np.ndarray, p: int, criterion: str
                     ) -> np.ndarray:
    """The per-size profile of each candidate from the batched oracle:
    the Gray image of its code, through `jchar`'s masks and transform."""
    V = (rows[:, :, None] >> (2 * np.arange(p - 1, -1, -1))) & 3
    return _size_profiles(_gray_cells(_codewords(V)),
                          squared=criterion == "gma")


def _keys(prof: np.ndarray, n: int, p: int, criterion: str) -> list:
    """Exact minimize-oriented ranking key per row of a per-size profile:
    (-r, -e) for max_resolution, so that deeper resolution sorts first,
    or for gma the GWLP vector scaled by runs^2, compared ascending."""
    if criterion == "gma":
        return [tuple(key) for key in prof.tolist()]
    found = prof > 0
    worded, size = found.any(axis=1), found.argmax(axis=1)
    top = prof[np.arange(len(prof)), size]
    assert not (top & (top - 1)).any()  # aliasing indexes are dyadic
    # rho = top / runs = 2^-e, and log2(top) is the popcount of top - 1
    e = np.where(worded, 2 * n - _popcount(top - 1).astype(np.int64), 0)
    r = np.where(worded, size + 3, 2 * n + 2 * p + 1)
    return list(zip((-r).tolist(), (-e).tolist()))
