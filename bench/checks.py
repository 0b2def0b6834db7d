"""Correctness checks for the benchmark's outputs.

Every check returns a list of problem strings (empty when the output is
right). Each is computed apart from the code path under test: K values
come straight from V, words are built from dual codewords on a design
assembled here from the Gray map, and search results are re-scored one
design at a time through the single-design oracle rather than the
batched search path. Results arrive as plain data (see
`workloads.plain_report`), so the tests can tamper with them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

LEE = (0, 1, 2, 1)
GRAY = ((1, 1), (1, -1), (-1, -1), (-1, 1))
RANK = (0, 1, 3, 2)
MIXED_PARITIES = ((1, 1, 0), (1, 0, 1), (0, 1, 1))


# ------------------------------------------------------------ independent math

def canonical_wordtypes(p: int) -> list[tuple[int, ...]]:
    """Nonzero w with every entry even or first odd entry 1, ordered by
    Lee weight and then by the symbol rank 0 < 1 < 3 < 2."""
    def canonical(w):
        odd = [x for x in w if x % 2]
        return odd[0] == 1 if odd else any(w)

    kinds = [w for w in itertools.product(range(4), repeat=p) if canonical(w)]
    kinds.sort(key=lambda w: (sum(LEE[x] for x in w),
                              tuple(RANK[x] for x in w)))
    return kinds


def k_from_v(V, p: int) -> list[int]:
    """K_w = sum over the rows v of V of Lee(v . w), per canonical w."""
    words = np.array(canonical_wordtypes(p), dtype=np.int64).T  # p x W
    dots = (np.asarray(V, dtype=np.int64).reshape(-1, p) @ words) % 4
    return [int(x) for x in np.take(LEE, dots).sum(axis=0)]


def meets_preconditions(V) -> bool:
    pats = {tuple(x % 2 for x in row) for row in V}
    return all(pi in pats for pi in MIXED_PARITIES)


def design_cells(V, p: int) -> np.ndarray:
    """The +/-1 design of (V, I_n): runs ordered by the base-4 value of t
    (first digit most significant), each symbol a pair of Gray columns."""
    n = len(V)
    t = np.array(list(itertools.product(range(4), repeat=n)), dtype=np.int64)
    words = np.concatenate(
        [(t @ np.asarray(V, dtype=np.int64).reshape(n, p)) % 4, t], axis=1)
    return np.asarray(GRAY, dtype=np.int8)[words].reshape(len(t), -1)


def j_characteristic(cells: np.ndarray, cols) -> int:
    """Sum over the runs of the product of the (0-based) columns."""
    return int(np.prod(cells[:, list(cols)].astype(np.int64), axis=1).sum())


def dual_word_columns(V, w, rng: random.Random) -> list[int]:
    """Gray columns of the dual codeword u = (w, -Vw): both columns of
    each 2 in u, and one column of the pair, drawn from rng, for each odd
    entry. Some such draw is a word of the design (J != 0)."""
    u = list(w) + [-sum(v * x for v, x in zip(row, w)) % 4 for row in V]
    cols = []
    for j, x in enumerate(u):
        if x == 2:
            cols += [2 * j, 2 * j + 1]
        elif x % 2:
            cols.append(2 * j + rng.randrange(2))
    return cols


def resolution_key(resolution, factors: int):
    """Minimise-oriented max_resolution key; no word at all ranks best."""
    return -(Fraction(factors + 1) if resolution is None else resolution)


def oracle_summary(qcode, counts, p: int):
    """Resolution and GWLP of F through build_design -> spectrum_bruteforce
    -> summarize, one design at a time."""
    g = qcode.generator_for_frequency(qcode.FrequencyVector(p, tuple(counts)))
    d = qcode.build_design(g)
    summary = qcode.summarize(
        qcode.spectrum_bruteforce(d, d.factors, force=True), d.factors)
    return summary.resolution, tuple(summary.gwlp)


# ------------------------------------------------------------------- checks

def check_search(qcode, req, results, sample) -> list[str]:
    """F shape, order by (key, F), agreement with the single-design oracle,
    and a top key no worse than a seeded sample of candidates."""
    n, p, criterion = req["n"], req["p"], req["criterion"]
    factors = 2 * n + 2 * p
    tag = f"search({n}, {p}, {criterion})"
    out = []
    if len(results) != req["top"]:
        out.append(f"{tag}: {len(results)} results, asked for {req['top']}")

    def key(res, gwlp):
        return (resolution_key(res, factors) if criterion == "max_resolution"
                else tuple(gwlp))

    keyed = []
    for i, r in enumerate(results):
        counts = tuple(r["F"])
        if len(counts) != 4 ** p or counts[0] != 0 or sum(counts) != n:
            out.append(f"{tag} #{i}: F={counts} needs 4^{p} cells, f_0 = 0 "
                       f"and sum {n}")
            continue
        res, gwlp = oracle_summary(qcode, counts, p)
        if (r["resolution"], tuple(r["gwlp"])) != (res, gwlp):
            out.append(f"{tag} #{i}: reported resolution {r['resolution']} "
                       f"and GWLP differ from the oracle's {res}")
        keyed.append((key(res, gwlp), counts))
    if keyed != sorted(keyed):
        out.append(f"{tag}: results are not sorted by key and then F")
    if keyed:
        for counts in sample:
            other = key(*oracle_summary(qcode, counts, p))
            if other < keyed[0][0]:
                out.append(f"{tag}: sampled F={counts} beats the top result")
                break
    return out


def check_k_values(tag: str, V, p: int, rep) -> list[str]:
    want = k_from_v(V, p)
    got = list(rep["k"])
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    if len(got) != len(want) or bad:
        return [f"{tag}: K differs from sum of Lee(v.w) at cells "
                f"{bad or 'count'}"]
    return []


def check_mass_law(tag: str, rep) -> list[str]:
    total = sum(rep["gwlp"], Fraction(0))
    return [] if total == 63 else [f"{tag}: GWLP sums to {total}, not 63"]


def check_sampled_words(tag: str, V, p: int, rep, rng: random.Random,
                        samples: int = 8) -> list[str]:
    """Dual-codeword column subsets with J != 0 must sit in a reported
    spectrum cell (length, |J| / runs)."""
    cells = design_cells(V, p)
    runs = cells.shape[0]
    have = {(length, rho) for length, rho, _ in rep["spectrum"]}
    kinds = canonical_wordtypes(p)
    found = 0
    for _ in range(8 * samples):
        cols = dual_word_columns(V, rng.choice(kinds), rng)
        j = j_characteristic(cells, cols)
        if j == 0 or len(cols) < 3:
            continue
        found += 1
        if (len(cols), Fraction(abs(j), runs)) not in have:
            return [f"{tag}: columns {cols} have J = {j}, but the spectrum "
                    f"has no cell ({len(cols)}, {Fraction(abs(j), runs)})"]
        if found == samples:
            break
    return [] if found else [f"{tag}: no sampled dual word had J != 0"]


def check_oracle_agreement(qcode, tag: str, V, p: int, rep) -> list[str]:
    g = qcode.GeneratorSpec(len(V), p, tuple(tuple(r) for r in V))
    d = qcode.build_design(g)
    brute = qcode.spectrum_bruteforce(d, d.factors).entries
    if tuple(rep["spectrum"]) != tuple(brute):
        return [f"{tag}: closed-form spectrum differs from the oracle's"]
    return []


def check_periodic(qcode, tag: str, fam) -> list[str]:
    f = qcode.FrequencyVector(3, tuple(fam["extended"]))
    rep = qcode.analyze(qcode.generator_for_frequency(f), method="theory")
    if rep.summary.resolution != fam["resolution"]:
        return [f"{tag}: periodic_extend predicts resolution "
                f"{fam['resolution']}, analyze on the extended F gives "
                f"{rep.summary.resolution}"]
    return []


def read_design_text(text: str) -> np.ndarray:
    lines = text.strip().split("\n")
    runs, factors = (int(part.split("=")[1]) for part in lines[0].split())
    cells = np.array([[int(v) for v in line.split(",")] for line in lines[1:]],
                     dtype=np.int8)
    if cells.shape != (runs, factors):
        raise ValueError(f"body {cells.shape} against header "
                         f"({runs}, {factors})")
    return cells


def report_payload(rep) -> dict:
    """The JSON `qcode analyze` should print for a plain report."""
    return {"runs": rep["runs"], "factors": rep["factors"],
            "spectrum": [{"length": l, "rho": str(r), "count": c}
                         for l, r, c in rep["spectrum"]],
            "gwlp": [str(x) for x in rep["gwlp"]],
            "resolution": (str(rep["resolution"]) if rep["resolution"]
                           is not None else f"> {rep['scanned']}"),
            "method": rep["method"]}
