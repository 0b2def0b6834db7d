"""Counting-theory layer: spectra from the frequency vector alone,
periodic families, and the exact search."""

import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import qcode
from conftest import (MIXED_PARITIES, miscount_scan, random_generator,
                      random_precondition_generator)
from qcode import (FrequencyVector, GeneratorSpec, PreconditionError,
                   SpectrumMismatch, WordSpectrum, aliasing_exponent, analyze,
                   build_design, class_rhos, evaluate, fixed_point_7,
                   frequency_vector, generator_for_frequency, parity_classes,
                   periodic_extend, precondition_sums, preconditions_met,
                   search, spectrum_bruteforce, summarize, theory_spectrum)
from qcode.equations import MAX_P, build_system, canonical_wordtypes, cells
from qcode.theory import (WORK_BUDGET, _best_frequencies, _cell_sum,
                          _cell_terms, _distinct_rows, _dual_keys,
                          _dual_tables, _dual_words, _half_excess,
                          _orbit_frequencies, _orbit_representatives,
                          _pair_classes, _ranked_orbits, _system_columns,
                          search_work)
from qcode import theory
from qcode.z4 import LEE_WEIGHTS, MAX_N, cell_index

HALF = Fraction(1, 2)


def test_evaluate_frozen_design(f256, design256):
    ev = evaluate(f256)
    assert list(ev.a_values) == design256[1]["A"]
    assert list(ev.k_values) == design256[1]["K"]


def test_precondition_sums(f256):
    sums = precondition_sums(f256)
    assert set(sums) == set(MIXED_PARITIES)
    assert all(v > 0 for v in sums.values())
    assert preconditions_met(f256)


def test_precondition_failure_names_patterns():
    counts = [0] * 64
    counts[21] = 2  # (1,1,1): all three mixed classes stay empty
    f = FrequencyVector(3, tuple(counts))
    assert not preconditions_met(f)
    with pytest.raises(PreconditionError, match="110.*101.*011"):
        theory_spectrum(f)


def test_aliasing_exponent():
    # q odd entries in the class, a the evaluated linear form
    assert aliasing_exponent(1, 2) == 1
    assert aliasing_exponent(2, 1) == 1
    assert aliasing_exponent(2, 3) == 2
    assert aliasing_exponent(3, 1) == 1
    assert aliasing_exponent(3, 3) == 2


def test_theory_spectrum_frozen_design(f256, design256):
    spec = theory_spectrum(f256)
    want = tuple((l, Fraction(r), c) for l, r, c in design256[1]["spectrum"])
    assert spec.entries == want
    rhos = class_rhos(f256)
    assert rhos == (HALF,) * 7


def test_class_rhos_need_the_preconditions():
    """V = ((2, 1, 1),) puts its one row on parity pattern 011 and none on
    110 or 101: the paper's indices would read 1/2 for classes 101, 110
    and 111, where the oracle finds every word completely aliased."""
    g = GeneratorSpec(1, 3, ((2, 1, 1),))
    f = frequency_vector(g)
    with pytest.raises(PreconditionError, match="110, 101"):
        class_rhos(f)
    spec = spectrum_bruteforce(build_design(g), 8)
    assert {rho for _, rho, _ in spec.entries} == {1}
    with pytest.raises(ValueError, match="p = 2"):
        class_rhos(FrequencyVector(2, (0, 1) + (0,) * 14))
    with pytest.raises(ValueError, match="^preconditions are defined for "
                       "p = 3 only$"):
        precondition_sums(FrequencyVector(2, (0, 1) + (0,) * 14))


def test_evaluate_refuses_n_past_the_int64_bound():
    """One count of 2^62 puts n past the largest n whose packed keys fit
    int64; the sum itself would come back wrapped."""
    counts = [0] * 64
    counts[21] = 2 ** 62
    with pytest.raises(ValueError, match="int64"):
        evaluate(FrequencyVector(3, tuple(counts)))
    bound = theory._MAX_N
    assert (2 * bound + 2 * 6 + 1) ** 2 < 2 ** 63 \
        <= (2 * bound + 2 + 2 * 6 + 1) ** 2
    counts[21] = bound
    assert evaluate(FrequencyVector(3, tuple(counts))).a_values[-1] > 0


def test_parity_class_sums(f256, design256):
    sums = dict(zip(parity_classes(3), evaluate(f256).a_values))
    assert [sums[pi] for pi in sorted(sums, key=lambda x: (sum(x), x))] \
        == design256[1]["A"]


def test_analyze_both_agree_on_frozen_design(design256):
    rep = analyze(design256[0], method="both")
    assert rep.method == "both"
    assert rep.preconditions_met
    assert str(rep.summary.resolution) == design256[1]["resolution"]


def test_analyze_p3_requires_preconditions_for_theory():
    """The paper's p = 3 theory (its spectrum and class aliasing indices)
    needs the preconditions; the dual closed form behind analyze does
    not, and gives the subset scan's report on a failing F."""
    g = GeneratorSpec(3, 3, ((1, 1, 1), (2, 0, 0), (0, 2, 2)))
    with pytest.raises(PreconditionError):
        theory_spectrum(frequency_vector(g))
    rep = analyze(g, method="theory")
    assert not rep.preconditions_met and rep.rhos == ()
    brute = analyze(g, method="bruteforce")
    assert rep == dataclasses.replace(brute, method="theory")
    assert analyze(g, method="both").spectrum == brute.spectrum


def test_analyze_checks_preconditions_before_building(monkeypatch, rng):
    """A theory report reads F, K/A and whether the preconditions hold
    without building a design or an equation system, at every p up to
    MAX_P and on an F that fails the preconditions."""
    import qcode.equations as equations
    import qcode.theory as theory

    def built(*args):
        raise AssertionError("a theory report built a design or a system")

    monkeypatch.setattr(theory, "build_design", built)
    monkeypatch.setattr(equations.EquationSystem, "__init__", built)
    failing = GeneratorSpec(3, 3, ((1, 1, 1), (2, 0, 0), (0, 2, 2)))
    assert not analyze(failing, method="theory").preconditions_met
    for p in range(1, 7):
        rep = analyze(random_generator(rng, 13, p), method="theory")
        assert rep.summary.gwlp and len(rep.k_values) == len(
            canonical_wordtypes(p))


def test_import_builds_no_equation_system():
    """`import qcode` builds no equation system: the closed form's tables
    are built on first use."""
    src = str(Path(qcode.__file__).parents[1])
    code = ("import gc, qcode\n"
            "built = [o for o in gc.get_objects()\n"
            "         if isinstance(o, qcode.EquationSystem)]\n"
            "assert not built, built\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_call_imports_numpy_ma(tmp_path):
    """Search, analyze, periodic_extend and the CLI load no numpy.ma
    module: numpy 2 imports it on the first `np.unique` call that asks
    for no counts, indices or inverse.  The CLI calls include `construct`
    and `analyze --method bruteforce` of the design file it wrote, so
    the design text reader is covered.  The modules are compared before
    and after the calls, since numpy 1 loads numpy.ma with numpy."""
    src = str(Path(qcode.__file__).parents[1])
    gen, design = tmp_path / "gen.json", tmp_path / "design.txt"
    gen.write_text('{"n": 3, "p": 3, "V": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}')
    code = (
        "import contextlib, io, sys\n"
        "from qcode import (GeneratorSpec, analyze, frequency_vector,\n"
        "                   periodic_extend, search)\n"
        "from qcode.cli import main\n"
        "def ma():\n"
        "    return {k for k in sys.modules\n"
        "            if k == 'numpy.ma' or k.startswith('numpy.ma.')}\n"
        "before = ma()\n"
        "for c in ('max_resolution', 'gma'):\n"
        "    search(2, 3, c)\n"
        "search(3, 1, 'gma')\n"
        "g = GeneratorSpec(3, 3, ((1, 1, 0), (1, 0, 1), (0, 1, 1)))\n"
        "analyze(g, method='both')\n"
        "periodic_extend(frequency_vector(g), 2)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['matrices', '--p', '2']) == 0\n"
        f"    assert main(['construct', '--input', {str(gen)!r},\n"
        f"                 '--output', {str(design)!r}]) == 0\n"
        f"    assert main(['analyze', '--input', {str(design)!r},\n"
        "                 '--method', 'bruteforce']) == 0\n"
        "assert ma() == before, sorted(ma() - before)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


#: (p, n) sizes at which every row multiset is refereed
_EXHAUSTIVE = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2))


@pytest.mark.parametrize("p, n", _EXHAUSTIVE)
def test_dual_spectrum_matches_the_scan_on_every_multiset(p, n):
    """`both` raises SpectrumMismatch on any disagreement between the
    dual closed form and the subset scan: every multiset of n rows,
    the zero row included, at each (p, n)."""
    for rows in itertools.combinations_with_replacement(cells(p), n):
        analyze(GeneratorSpec(n, p, rows), method="both")


@pytest.mark.parametrize("p, most", [(4, 6), (5, 5), (6, 4)])
def test_dual_spectrum_matches_the_scan_past_p3(rng, p, most):
    """Sampled generators above p = 3, at 20 factors or fewer, through
    `both`."""
    for n in range(1, most + 1):
        for _ in range(3 if n < most else 1):
            analyze(random_generator(rng, n, p), method="both")


def test_dual_spectrum_matches_the_scan_without_preconditions(rng):
    """Sampled p = 3 generators that fail the preconditions: V misses a
    mixed parity pattern."""
    checked = 0
    while checked < 12:
        g = random_generator(rng, int(rng.integers(3, 7)), 3)
        if not preconditions_met(frequency_vector(g)):
            rep = analyze(g, method="both")
            assert rep.rhos == () and not rep.preconditions_met
            checked += 1


def _sparse_f(n: int) -> FrequencyVector:
    """A p = 3 F summing to n that meets the preconditions: one row on
    each mixed parity pattern, the rest on the zero cell."""
    counts = [0] * 64
    for c in (20, 17, 5):  # digits 110, 101, 011: the mixed parities
        counts[c] = 1
    counts[0] = n - 3
    return FrequencyVector(3, tuple(counts))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dual_spectrum_memory_is_the_gwlp_alone():
    """At n = 10^6 (2,000,006 factors) the report holds the GWLP tuple,
    O(n) by its format, and allocates nothing else of that size: the
    traced peak stays under 20 bytes per factor."""
    n = 10 ** 6
    factors = 2 * n + 6
    theory_spectrum(_sparse_f(3))  # fills the caches
    f = _sparse_f(n)
    peak = _traced_peak(lambda: theory._dual_spectrum(
        _cell_sum(f), 3, factors, factors))
    assert peak < 20 * factors


def test_theory_spectrum_builds_no_gwlp():
    """`theory_spectrum` takes only the spectrum cells from the dual tally:
    at n = 10^6 its traced peak is the dual pass's small arrays, under
    1 MiB, where a GWLP of 2n + 4 entries would be tens of MB."""
    theory_spectrum(_sparse_f(3))  # fills the caches
    f = _sparse_f(10 ** 6)
    assert _traced_peak(lambda: theory_spectrum(f)) < 1 << 20


def _draw_precondition_f(data, lo: int, hi: int) -> FrequencyVector:
    """A p = 3 F summing to n in lo..hi with a row on each mixed parity
    pattern, the rest anywhere."""
    n = data.draw(st.integers(lo, hi), label="n")
    rows = [data.draw(st.sampled_from(cs), label="mixed cell")
            for cs in _MIXED_CELLS]
    rows += data.draw(st.lists(st.integers(0, 63), min_size=n - 3,
                               max_size=n - 3), label="more cells")
    f = FrequencyVector(3, tuple(np.bincount(rows, minlength=64).tolist()))
    assert preconditions_met(f)
    return f


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dual_pass_holds_the_paper_theorem(data):
    """Where the p = 3 preconditions hold, the dual pass gives the paper's
    closed form: at each canonical wordtype w, L_w is Lee(w) + K_w (the
    system's constant plus K), and e is aliasing_exponent(q, A) for w's
    parity class (0 when w is fully even)."""
    f = _draw_precondition_f(data, 3, 12)
    ev, sysm = evaluate(f), build_system(3)
    lengths, e = _dual_words(_cell_sum(f)[None], 3)
    for w, const, k in zip(sysm.k_order, sysm.constants, ev.k_values):
        col = cell_index(np.array(w)) - 1
        assert lengths[0, col] == const + k
        pi = tuple(x % 2 for x in w)
        want = (aliasing_exponent(sum(pi), ev.a_values[
            sysm.a_order.index(pi)]) if any(pi) else 0)
        assert e[0, col] == want


def test_analyze_both_raises_on_mismatch(monkeypatch, design256):
    miscount_scan(monkeypatch)
    with pytest.raises(SpectrumMismatch, match="at length 6, aliasing "
                       "index 1/2: 168 vs 169 words"):
        analyze(design256[0], method="both")


def test_analyze_both_raises_on_a_summary_mismatch(monkeypatch, design256):
    """`both` referees the summary read off the dual tally against
    `summarize` of the scan's spectrum, even when the spectra agree."""
    real = theory.summarize

    def off_by_one(spectrum, factors, scanned_length=None):
        summary = real(spectrum, factors, scanned_length)
        return dataclasses.replace(summary, gwlp=(summary.gwlp[0] + 1,
                                                  *summary.gwlp[1:]))

    monkeypatch.setattr(theory, "summarize", off_by_one)
    with pytest.raises(SpectrumMismatch, match="closed form and subset "
                       "scan disagree: DesignSummary"):
        analyze(design256[0], method="both")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dual_summary_matches_summarize_past_the_scan(data):
    """Past MAX_N, where no design is built and no scan can run, the
    report's summary, read off the dual tally, equals `summarize` of its
    spectrum at every p, clipped or not."""
    p = data.draw(st.integers(1, MAX_P), label="p")
    n = data.draw(st.integers(MAX_N + 1, 300 if p <= 3 else 40), label="n")
    V = data.draw(hnp.arrays(np.int64, (n, p), elements=st.integers(0, 3)),
                  label="V")
    factors = 2 * n + 2 * p
    max_length = data.draw(st.none() | st.integers(3, factors),
                           label="max_length")
    rep = analyze(GeneratorSpec(n, p, tuple(map(tuple, V.tolist()))),
                  max_length=max_length)
    max_len = factors if max_length is None else max_length
    assert rep.summary == summarize(rep.spectrum, rep.factors, max_len)


@pytest.mark.parametrize("g, max_length", [
    (GeneratorSpec(1, 1, ((0,),)), None),
    (GeneratorSpec(20, 3, ((1, 2, 3),) * 10 + ((3, 3, 1),) * 10), 3)])
def test_dual_summary_without_words(g, max_length):
    """No word in the report's range: no resolution and no max rho, as
    `summarize` gives them."""
    rep = analyze(g, max_length=max_length)
    assert rep.spectrum.entries == ()
    assert rep.summary.resolution is None
    assert rep.summary.max_rho_at_min_length is None
    assert rep.summary == summarize(rep.spectrum, rep.factors,
                                    rep.summary.scanned_length)


@pytest.mark.parametrize("method", ["theory", "bruteforce", "both"])
@pytest.mark.parametrize("max_length", [4.5, True, "4", Fraction(4), 2, 15])
def test_analyze_refuses_a_bad_max_length(design256, method, max_length):
    """Only an int in 3..factors, on every route."""
    with pytest.raises(ValueError, match="^max_length must be"):
        analyze(design256[0], method=method, max_length=max_length)


def test_analyze_refuses_an_unknown_method(design256):
    with pytest.raises(ValueError, match="^unknown method 'fast'$"):
        analyze(design256[0], method="fast")


@pytest.mark.parametrize("method", ["bruteforce", "both"])
def test_analyze_refuses_a_non_dyadic_scan(monkeypatch, design256, method):
    """A Z4 design's aliasing indices are powers of 1/2; the scan's
    report is checked before it is read."""
    monkeypatch.setattr(theory, "spectrum_bruteforce", lambda *a, **k:
                        WordSpectrum(((3, Fraction(1, 3), 1),)))
    with pytest.raises(AssertionError, match="^non-dyadic aliasing index "
                       "in a quaternary-code design$"):
        analyze(design256[0], method=method)


def test_clipped_reports_agree_on_frozen_design(design256):
    """Each max_length: the closed form's clipped spectrum against the
    subset scan's, and the summaries built from them."""
    g = design256[0]
    for k in range(3, 15):
        theory, both, brute = (analyze(g, method=m, max_length=k)
                               for m in ("theory", "both", "bruteforce"))
        assert theory.spectrum == both.spectrum == brute.spectrum
        assert theory.summary == both.summary == brute.summary
        assert all(length <= k for length, _, _ in theory.spectrum.entries)


def test_analyze_bruteforce_above_max_p():
    # no equation system exists for p = 7: K/A are empty, the 4-run,
    # 16-factor WHT still runs
    g = GeneratorSpec(1, 7, ((1, 2, 3, 0, 1, 2, 3),))
    rep = analyze(g, method="bruteforce")
    assert (rep.k_values, rep.a_values, rep.rhos) == ((), (), ())
    assert not rep.preconditions_met
    assert rep.spectrum == spectrum_bruteforce(build_design(g), 16)


def test_evaluate_arrays_built_once_per_p(f256):
    """Every table the closed form reads per call (`evaluate`,
    `class_rhos`, `periodic_extend` and the dual pass) is cached per p:
    a second call returns the same objects.  K is the table's F-weighted
    row sum at the canonical wordtypes."""
    for p in (2, 3):
        for tables in (_cell_terms, _system_columns, _dual_tables):
            assert tables(p) is tables(p)
    assert theory._digits(3) is theory._digits(3)
    kinds = _system_columns(3)[0]
    k = np.asarray(f256.counts) @ _cell_terms(3)[:, kinds].astype(np.int64)
    assert evaluate(f256).k_values == tuple(k.tolist())


@pytest.mark.parametrize("p", range(1, 7))
def test_system_arrays_match_the_assembled_system(p):
    """K and A read off one table sum equal C F and B F with the C and B
    that the equation system assembles by its moves, on random F with
    counts well above 1; each canonical wordtype's C row is its column
    of the Lee(v.w) table; and its constant is its Lee weight."""
    sysm = build_system(p)
    c, b = np.array(sysm.c_matrix()), np.array(sysm.b_matrix())
    kinds = cell_index(np.array(sysm.k_order)) - 1
    assert (_cell_terms(p)[:, kinds].T == c).all()
    gen = np.random.default_rng(p)
    for cells_used in (1, min(5, 4 ** p), 4 ** p):
        counts = np.zeros(4 ** p, dtype=np.int64)
        counts[gen.choice(4 ** p, cells_used, replace=False)] = \
            gen.integers(1, 1000, cells_used)
        ev = evaluate(FrequencyVector(p, tuple(counts.tolist())))
        assert ev.k_values == tuple((c @ counts).tolist())
        assert ev.a_values == tuple((b @ counts).tolist())
    assert sysm.constants == tuple(sum(LEE_WEIGHTS[x] for x in w)
                                   for w in sysm.k_order)


def test_one_table_sum_per_analyze_and_two_per_extension(
        monkeypatch, rng, design256, f256):
    """`analyze` reads K, A, the preconditions and the spectrum off one
    F-weighted sum of the table; `periodic_extend` sums it once for f0
    and once for ft."""
    import qcode.theory as theory
    table, calls = theory._cell_terms, []
    monkeypatch.setattr(theory, "_cell_terms",
                        lambda p: calls.append(p) or table(p))
    for g in (design256[0], random_generator(rng, 13, 3),
              random_generator(rng, 4, 6)):
        calls.clear()
        analyze(g, method="theory")
        assert calls == [g.p]
    calls.clear()
    periodic_extend(f256, 2)
    assert calls == [3, 3]


def test_analyze_small_p_both(rng):
    for p in (1, 2):
        for _ in range(4):
            g = random_generator(rng, 3, p)
            rep = analyze(g, method="both")
            brute = spectrum_bruteforce(build_design(g),
                                        2 * g.n + 2 * g.p)
            assert rep.spectrum == brute


def test_theory_oracle_equivalence_random(rng):
    for _ in range(6):
        g = random_precondition_generator(rng, int(rng.integers(3, 5)))
        rep = analyze(g, method="both")
        assert rep.preconditions_met


def test_wordlength_parity_within_class(rng, systems):
    """All four length slots of a parity class share one parity."""
    sysm = systems[3]
    for _ in range(5):
        f = frequency_vector(random_precondition_generator(rng, 4))
        ev = evaluate(f)
        by_class = {}
        for w, k in zip(sysm.k_order, ev.k_values):
            pi = tuple(x % 2 for x in w)
            if not any(pi):
                continue
            const = sum(1 if x % 2 else x for x in w)
            by_class.setdefault(pi, set()).add((k + const) % 2)
        assert all(len(par) == 1 for par in by_class.values())


def test_gwlp_mass_law(rng):
    for _ in range(5):
        g = random_precondition_generator(rng, 4)
        rep = analyze(g, method="both")
        assert sum(rep.summary.gwlp) == 63


def test_column_permutation_invariance(rng):
    g = random_precondition_generator(rng, 4)
    perm = (2, 0, 1)
    gp = GeneratorSpec(g.n, g.p, tuple(tuple(row[j] for j in perm)
                                       for row in g.V))
    assert analyze(g).spectrum == analyze(gp).spectrum


def test_periodic_extension_frozen(f256, examples):
    ex = examples["periodic_extension"]
    fam = periodic_extend(f256, 1)
    assert list(fam.extended.counts) == ex["Ft"]
    assert fam.predicted_r == ex["r"]
    assert str(fam.predicted_rho) == ex["rho"]
    assert fixed_point_7(fam.predicted_resolution) \
        == ex["rendered_resolution"]


def test_periodic_extension_identity(f256):
    fam = periodic_extend(f256, 0)
    assert fam.extended.counts == f256.counts
    assert fam.predicted_r == 6
    assert fam.predicted_rho == HALF
    assert fam.predicted_resolution == Fraction(13, 2)


@pytest.mark.parametrize("t", [True, 1.5, "1", None, -1])
def test_periodic_extension_refuses_a_bad_t(f256, t):
    with pytest.raises(ValueError, match="^t must be"):
        periodic_extend(f256, t)


def test_periodic_extension_makes_no_dual_pass(monkeypatch, f256, examples):
    """r and rho are read off the base's K and A values alone."""
    def no_dual_pass(terms, p):
        raise AssertionError("periodic_extend ran the dual pass")

    monkeypatch.setattr(theory, "_dual_words", no_dual_pass)
    ex = examples["periodic_extension"]
    fam = periodic_extend(f256, 1)
    assert list(fam.extended.counts) == ex["Ft"]
    assert (fam.predicted_r, str(fam.predicted_rho)) == (ex["r"], ex["rho"])
    assert fixed_point_7(fam.predicted_resolution) \
        == ex["rendered_resolution"]


def _dual_key_prediction(f0, t):
    """(r, rho) of the t-step extension the old way: the base's r0 and e0
    off the dual pass's max_resolution key, -(r0 * (2n + 7) + e0)."""
    [key] = _dual_keys(_cell_sum(f0)[None], f0.n, 3,
                       "max_resolution").tolist()
    r0, e0 = divmod(-key, 2 * f0.n + 7)
    return 64 * t + r0, Fraction(1, 2 ** (16 * t + e0)) if e0 else 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_periodic_extension_reads_r_and_rho_as_the_dual_pass(data):
    """The base's r and rho read off K and A equal those of the dual
    pass, for n up to 300 and t up to 3."""
    f0 = _draw_precondition_f(data, 3, 300)
    t = data.draw(st.integers(0, 3), label="t")
    fam = periodic_extend(f0, t)
    assert (fam.predicted_r, fam.predicted_rho) == _dual_key_prediction(f0, t)
    assert type(fam.predicted_r) is int


@pytest.mark.parametrize("columns, message", [
    (slice(None), "word-count shift identity violated"),
    (slice(63, None), "parity-sum shift identity violated")])
def test_periodic_extension_checks_both_shifts(monkeypatch, f256, columns,
                                               message):
    """A table sum of ft that is off by one, in every column or in the
    parity-mass columns alone, breaks a shift identity."""
    real = theory._cell_sum

    def off_by_one(f):
        terms = real(f)
        if f != f256:
            terms[columns] += 1
        return terms

    monkeypatch.setattr(theory, "_cell_sum", off_by_one)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        periodic_extend(f256, 1)


def _check_periodic_against_closed_form(f0, t):
    fam = periodic_extend(f0, t)
    spec = theory_spectrum(fam.extended)
    summary = summarize(spec, 2 * sum(fam.extended.counts) + 6)
    assert fam.predicted_r == spec.entries[0][0]
    assert fam.predicted_rho == summary.max_rho_at_min_length
    assert fam.predicted_resolution == summary.resolution
    return fam


#: the p = 3 cells of each mixed parity pattern
_MIXED_CELLS = tuple(
    [c for c, pat in enumerate(cells(3)) if tuple(x % 2 for x in pat) == pi]
    for pi in MIXED_PARITIES)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_periodic_prediction_matches_closed_form(data):
    picks = [data.draw(st.sampled_from(cs), label="mixed cell")
             for cs in _MIXED_CELLS]
    picks += data.draw(st.lists(st.integers(0, 63), max_size=6),
                       label="more cells")
    counts = [0] * 64
    for c in picks:
        counts[c] += 1
    t = data.draw(st.integers(0, 3), label="t")
    _check_periodic_against_closed_form(FrequencyVector(3, tuple(counts)), t)


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_periodic_prediction_keeps_complete_word(t):
    # a complete word is among the shortest words: rho stays 1
    counts = [0] * 64
    for c in (11, 25, 37, 40, 54, 56, 59):
        counts[c] = 1
    fam = _check_periodic_against_closed_form(
        FrequencyVector(3, tuple(counts)), t)
    assert (fam.predicted_r, fam.predicted_rho) == (6 + 64 * t, 1)


def test_shift_identities_random(rng):
    for _ in range(10):
        f0 = frequency_vector(random_precondition_generator(rng, 4))
        base = evaluate(f0)
        for t in (1, 2, 3):
            counts = tuple(c if i == 0 else c + t
                           for i, c in enumerate(f0.counts))
            shifted = evaluate(FrequencyVector(3, counts))
            assert all(b - a == 64 * t for a, b in
                       zip(base.k_values, shifted.k_values))
            assert all(b - a == 32 * t for a, b in
                       zip(base.a_values, shifted.a_values))


def test_fixed_point_7_rounding():
    assert fixed_point_7(Fraction(1, 2)) == "0.5000000"
    assert fixed_point_7(Fraction(13, 2)) == "6.5000000"
    # ties round to even in the last kept digit
    assert fixed_point_7(Fraction(1, 2 * 10 ** 7)) == "0.0000000"
    assert fixed_point_7(Fraction(3, 2 * 10 ** 7)) == "0.0000002"


_TIES = st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                  st.just(2 * 10 ** 7))


@settings(max_examples=300, deadline=None)
@given(st.builds(Fraction, st.integers(-10 ** 15, 10 ** 15),
                 st.integers(1, 10 ** 12)) | _TIES)
@example(Fraction(-1, 2))
@example(Fraction(-1, 3))
@example(Fraction(-3, 2 * 10 ** 7))
@example(Fraction(-1, 3 * 10 ** 8))
def test_fixed_point_7_matches_decimal(x):
    """Both signs, ties included, against Decimal quantized to 1e-7
    half-even."""
    with localcontext() as ctx:
        ctx.prec = 200
        q = (Decimal(x.numerator) / Decimal(x.denominator)).quantize(
            Decimal("1e-7"), rounding=ROUND_HALF_EVEN)
    assert fixed_point_7(x) == format(q, "f")


def _candidate_count(n, p):
    """Multisets of n nonzero cells of Z4^p: the F that search ranks."""
    return comb(n + 4 ** p - 2, 4 ** p - 2)


def test_candidate_count():
    assert _candidate_count(1, 1) == 3
    assert _candidate_count(4, 3) == 720720
    for n, p in ((3, 1), (2, 2), (1, 3)):
        nonzero = range(4 ** p - 1)
        assert _candidate_count(n, p) == sum(
            1 for _ in itertools.combinations_with_replacement(nonzero, n))


def test_search_tiny_exhaustive():
    results = search(1, 1, criterion="max_resolution", top=3)
    assert [f.counts for f, _ in results] == [(0, 0, 0, 1), (0, 1, 0, 0),
                                              (0, 0, 1, 0)]
    assert [str(r.summary.resolution) for _, r in results] == \
        ["4", "4", "3"]
    gma = search(1, 1, criterion="gma", top=1)
    assert gma[0][0].counts == (0, 0, 0, 1)


def test_search_budget_guard():
    from qcode import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        search(9, 3)


@pytest.mark.parametrize("force", [False, True])
def test_search_reports_designs_past_the_transform_limit(monkeypatch, force):
    # 26 factors, past the WHT's 24: the winners' reports come from the
    # dual closed form, so no design is built, forced or not
    import qcode.theory as theory

    def built(g):
        raise AssertionError("search built a design")

    monkeypatch.setattr(theory, "build_design", built)
    assert search_work(12, 1) <= WORK_BUDGET
    [(f, rep)] = search(12, 1, force=force)
    assert rep.factors == 26 and rep.method == "theory"
    # every row of V is 2: w = 2 gives a word of length 2, outside the
    # spectrum, and w = 1 and 3 one complete word of length 25 each
    assert f.counts == (0, 0, 12, 0)
    assert rep.spectrum.entries == ((25, 1, 2),)


def test_search_5_3_priced_within_budget():
    # priced only: multisets of the 35 pair classes times the 48 column
    # operations that canonicalize each
    assert search_work(5, 3) == comb(39, 5) * 48 <= WORK_BUDGET
    assert search_work(6, 3) == comb(40, 6) * 48 <= WORK_BUDGET
    assert search_work(7, 3) == comb(41, 7) * 48 > WORK_BUDGET
    assert search_work(9, 3) > WORK_BUDGET


def test_search_matches_direct_analysis(rng):
    results = search(2, 2, top=2)
    for f, rep in results:
        direct = analyze(generator_for_frequency(f), method="bruteforce")
        assert rep.spectrum == direct.spectrum


def test_search_rejects_large_p():
    with pytest.raises(ValueError):
        search(2, 4)


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n must be positive"):
        search(0, 3)
    with pytest.raises(ValueError, match="p in 1..3, got p = 0"):
        search(2, 0)
    with pytest.raises(ValueError, match="must be integers, got 2.5"):
        search(2, 3, top=2.5)
    with pytest.raises(ValueError, match="must be integers, got 2.0"):
        search(2.0, 3)
    with pytest.raises(ValueError, match="must be integers, got True"):
        search(2, 3, top=True)
    with pytest.raises(ValueError, match="^unknown criterion 'best'$"):
        search(2, 3, criterion="best")
    with pytest.raises(ValueError, match="^top must be positive$"):
        search(2, 3, top=0)


def test_search_gate_digest():
    """Every ranking at n = 1..4, p = 1..3 under both criteria, top 5,
    pinned by the sha256 of the results' reprs."""
    text = "".join(repr(search(n, p, c, top=5)) for n in range(1, 5)
                   for p in range(1, 4) for c in ("max_resolution", "gma"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f5ed50d8f8796d15574b483e957756afd79b54523b68bc57321f0a31dd237872")


def _repr_or_error(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_theory_report_gate_digest():
    """The closed-form outputs on a seeded set of generators, pinned by
    the sha256 of their reprs (an error by its type and message): 500 at
    p = 3, n in 4..300, 4 in 5 of them with mass on every mixed parity
    pattern, and 20 at each p in {1, 2, 4, 5, 6}.  Each gives analyze(g,
    "theory"), unclipped and at a random max_length, theory_spectrum,
    class_rhos and periodic_extend for t in 0..3."""
    rng = random.Random(20261020)
    cases = [(3, rng.randint(4, 300), rng.random() < 0.8) for _ in range(500)]
    cases += [(p, rng.randint(1, most), False) for p, most in
              ((1, 300), (2, 300), (4, 60), (5, 30), (6, 12))
              for _ in range(20)]
    digest = hashlib.sha256()
    for p, n, met in cases:
        rows = [tuple(rng.randrange(4) for _ in range(p)) for _ in range(n)]
        if met:
            for i, pi in enumerate(MIXED_PARITIES):
                rows[i] = tuple(rng.choice((1, 3)) if b else rng.choice((0, 2))
                                for b in pi)
            rng.shuffle(rows)
        g = GeneratorSpec(n, p, tuple(rows))
        f = frequency_vector(g)
        outputs = [
            _repr_or_error(analyze, g, "theory"),
            _repr_or_error(analyze, g, "theory",
                           max_length=rng.randint(3, 2 * n + 2 * p)),
            _repr_or_error(theory_spectrum, f),
            _repr_or_error(class_rhos, f)]
        outputs += [_repr_or_error(periodic_extend, f, t) for t in range(4)]
        for text in outputs:
            digest.update(text.encode())
    assert digest.hexdigest() == (
        "bc004ee8650e2a663e8340466c6d51e601a40ced0279513c54e8ffd3629e208a")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.int8, np.int64]).flatmap(
    lambda dtype: hnp.arrays(
        dtype, st.tuples(st.integers(1, 40), st.integers(1, 6)),
        elements=st.integers(-2, 2))))
@example(np.array([[3, -1, 0]], dtype=np.int8))
@example(np.full((7, 2), 2, dtype=np.int64))
def test_distinct_rows_match_np_unique(rows):
    got = _distinct_rows(rows)
    assert got.dtype == rows.dtype
    np.testing.assert_array_equal(got, np.unique(rows, axis=0))


def _key_from_summary(counts, p, criterion):
    """Search key of one F through build_design -> spectrum_bruteforce ->
    summarize, the single-design oracle."""
    return _key(*_summary(counts, p), criterion)


def _summary(counts, p):
    d = build_design(generator_for_frequency(FrequencyVector(p, counts)))
    return d, summarize(spectrum_bruteforce(d, d.factors), d.factors)


def _key(d, summary, criterion):
    if criterion == "gma":
        assert all(a.denominator == 1 for a in summary.gwlp)
        return tuple(map(int, summary.gwlp))
    if summary.resolution is None:
        return (-(d.factors + 1), 0)
    rho = summary.max_rho_at_min_length
    r = int(summary.resolution + rho) - 1
    return (-r, -(rho.denominator.bit_length() - 1))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_oracle_keys_match_single_design(data):
    """Search's batched dual closed-form keys against the single-design
    oracle; the p = 3 mixed-class draws put mass on every mixed parity
    class, where the paper's closed form would also apply."""
    closed = data.draw(st.booleans(), label="closed form")
    if closed:
        p, n = 3, data.draw(st.integers(3, 4), label="n")
        row = st.tuples(*map(st.sampled_from, _MIXED_CELLS),
                        *[st.integers(0, 63)] * (n - 3))
    else:
        p = data.draw(st.integers(1, 3), label="p")
        n = data.draw(st.integers(1, 3), label="n")
        row = st.lists(st.integers(0, 4 ** p - 1), min_size=n, max_size=n)
    batch = data.draw(st.lists(row.map(sorted), min_size=1, max_size=6),
                      label="rows")
    rows = np.array(batch, dtype=np.int64)
    fmat = np.zeros((len(batch), 4 ** p), dtype=np.int64)
    np.add.at(fmat, (np.arange(len(batch))[:, None], rows), 1)
    for criterion in ("max_resolution", "gma"):
        want = [_key_from_summary(tuple(f), p, criterion)
                for f in fmat.tolist()]
        assert _row_keys(rows, p, criterion) == want


def _row_keys(rows, p, criterion):
    """`_dual_keys` of a (batch, n) array of cells, each row the multiset
    of V's row patterns, through its table sums gathered row by row."""
    terms = _cell_terms(p)[rows].sum(axis=1, dtype=np.int64)
    n = rows.shape[1]
    return _key_tuples(_dual_keys(terms, n, p, criterion), n, p, criterion)


def _key_tuples(keys, n, p, criterion):
    """Keys of `_dual_keys` as the tuples the oracle helpers give: the
    GWLP row for gma, and (-L, -e) unpacked from -(L * span + e) for
    max_resolution."""
    if criterion == "gma":
        return list(map(tuple, keys.tolist()))
    span = 2 * n + 2 * p + 1
    return [(-length, -e) for length, e in
            (divmod(key, span) for key in (-keys).tolist())]


@pytest.mark.parametrize("p, n", [(3, 5000), (6, 20000)])
def test_cell_sum_of_a_long_f_equals_the_row_gather(p, n, rng):
    """The F-weighted sum over F's nonzero cells equals the table gathered
    at every one of F's n rows and summed (a block of rows at a time, to
    keep the gather small)."""
    counts = np.bincount(rng.integers(0, 4 ** p, n), minlength=4 ** p)
    rows = np.repeat(np.arange(4 ** p), counts)
    want = sum(_cell_terms(p)[rows[i:i + 4096]].sum(axis=0, dtype=np.int64)
               for i in range(0, n, 4096))
    got = _cell_sum(FrequencyVector(p, tuple(counts.tolist())))
    assert got.dtype == np.int64 and (got == want).all()


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("criterion", ["max_resolution", "gma"])
def test_oracle_profiles_of_an_empty_batch(p, criterion):
    """A chunk of orbit representatives can hold no canonical row."""
    assert _row_keys(np.zeros((0, 3), dtype=np.intp), p, criterion) == []


def test_keys_reject_a_non_dyadic_index():
    """An odd k - d - r would make rho an odd power of 2^-1/2, and a
    negative one rho > 1; the check is a raise, so it holds under
    `python -O` too."""
    assert _half_excess(np.array([[0, 2, 6, 2 ** 62]])).tolist() \
        == [[0, 1, 3, 2 ** 61]]
    for bad in ([[0, 3, 0]], [[2, -2, 0]], [[-1]], [[-2]], [[2 ** 61 + 1]],
                [[-2 ** 62]]):
        with pytest.raises(AssertionError, match="non-dyadic"):
            _half_excess(np.array(bad))


@pytest.mark.parametrize("p, most", [(1, 6), (2, 4), (3, 3)])
def test_dual_keys_match_single_design_on_every_orbit(p, most):
    """Every orbit representative search scores, under both criteria,
    against the single-design oracle: through table sums gathered row by
    row, and as search ranks it, from its class counts."""
    low = _pair_classes(p)[0]
    for n in range(1, most + 1):
        reps = _orbit_representatives(n, p)
        rows = np.array([np.repeat(low, m) for m in reps])
        fmat = np.zeros((len(rows), 4 ** p), dtype=np.int64)
        np.add.at(fmat, (np.arange(len(rows))[:, None], rows), 1)
        summaries = [_summary(tuple(f), p) for f in fmat.tolist()]
        for criterion in ("max_resolution", "gma"):
            want = [_key(d, s, criterion) for d, s in summaries]
            assert _row_keys(rows, p, criterion) == want
            keys, ranked = _ranked_orbits(n, p, criterion)
            keys = _key_tuples(keys, n, p, criterion)
            assert sorted(zip(keys, ranked.tolist())) \
                == sorted(zip(want, reps.tolist()))


@pytest.mark.parametrize("p, n", [(4, 1), (4, 2), (5, 1), (6, 1)])
def test_dual_keys_match_single_design_past_p3(rng, p, n):
    """The scorer is written for every p; sampled above search's p = 3."""
    rows = np.sort(rng.integers(0, 4 ** p, (12, n)), axis=1)
    for criterion in ("max_resolution", "gma"):
        want = [_key_from_summary(tuple(np.bincount(r, minlength=4 ** p)
                                        .tolist()), p, criterion)
                for r in rows]
        assert _row_keys(rows, p, criterion) == want


def _spectrum(V, p):
    g = GeneratorSpec(len(V), p, tuple(map(tuple, V)))
    d = build_design(g)
    return spectrum_bruteforce(d, d.factors)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_and_column_symmetries_keep_the_spectrum(data):
    """Negating a row of V, and permuting and negating V's columns, leave
    the oracle's spectrum unchanged: the two symmetries search folds."""
    p = data.draw(st.integers(1, 3), label="p")
    n = data.draw(st.integers(1, 4), label="n")
    V = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=p,
                                    max_size=p), min_size=n, max_size=n),
                  label="V")
    row = data.draw(st.integers(0, n - 1), label="negated row")
    negated = [[-x % 4 for x in r] if i == row else r
               for i, r in enumerate(V)]
    perm = data.draw(st.permutations(range(p)), label="column order")
    signs = data.draw(st.lists(st.sampled_from((1, 3)), min_size=p,
                               max_size=p), label="column signs")
    moved = [[r[j] * s % 4 for j, s in zip(perm, signs)] for r in V]
    want = _spectrum(V, p)
    assert _spectrum(negated, p) == want
    assert _spectrum(moved, p) == want


@pytest.mark.parametrize("n, orbits", [(3, 758), (4, 5694)])
def test_orbit_counts_p3(n, orbits):
    reps = _orbit_representatives(n, 3)
    assert len(reps) == orbits
    assert sum(len(_orbit_frequencies(m, 3)) for m in reps) \
        == _candidate_count(n, 3)


def _burnside_orbits(n, p):
    """Orbits of the multisets of n pair classes {c, -c} under the signed
    column permutations, by Burnside's lemma, built from the cells alone:
    the mean over the group of the multisets an operation fixes, which is
    [z^n] of the product over its cycles on the classes of 1/(1 - z^len)."""
    cells = list(itertools.product(range(4), repeat=p))[1:]
    pair = {c: min(c, tuple(-x % 4 for x in c)) for c in cells}
    classes = sorted(set(pair.values()))
    total = 0
    ops = list(itertools.product(itertools.permutations(range(p)),
                                 itertools.product((1, 3), repeat=p)))
    for perm, signs in ops:
        image = {c: pair[tuple(c[j] * s % 4 for j, s in zip(perm, signs))]
                 for c in classes}
        series, seen = [1] + [0] * n, set()
        for start in classes:
            length, c = 0, start
            while c not in seen:
                seen.add(c)
                c, length = image[c], length + 1
            # a new cycle of this length: times 1 / (1 - z^length)
            for k in range(length, n + 1) if length else ():
                series[k] += series[k - length]
        total += series[n]
    assert total % len(ops) == 0
    return total // len(ops)


@pytest.mark.parametrize("p, most", [(1, 130), (2, 12), (3, 5)])
def test_orbit_count_matches_burnside(p, most):
    """The grown count rows against an independent orbit count, one per
    orbit; at p = 3 that is 758, 5,694 and 37,873 for n = 3..5.  At p = 1
    the count of a class reaches n past 127, one past the int8 range."""
    for n in range(1, most + 1):
        assert len(_orbit_representatives(n, p)) == _burnside_orbits(n, p)
    if p == 3:
        assert [_burnside_orbits(n, 3) for n in (3, 4, 5)] \
            == [758, 5694, 37873]


@pytest.mark.parametrize("n, p", [(1, 1), (2, 1), (9, 1), (20, 1), (64, 1),
                                  (4, 2), (8, 2), (20, 2)])
def test_orbit_expansion_counts_its_members(n, p):
    """Each orbit expands to distinct frequency vectors, F ascending, each
    with f_0 = 0 summing to n and with the class masses of an image of the
    orbit's row of class counts.  The orbits are all of them, or about
    200 evenly spaced ones."""
    low, high, moves = _pair_classes(p)
    reps = _orbit_representatives(n, p)
    step = max(1, len(reps) // 200)
    for counts in reps[::step].tolist():
        fs = _orbit_frequencies(tuple(counts), p)
        assert len(fs) == len(set(fs)) and fs == sorted(fs)
        images = {tuple(np.repeat(np.arange(len(low)), m))
                  for m in np.array(counts)[moves].tolist()}
        for f in fs:
            assert f[0] == 0 and sum(f) == n
            mass = [f[lo] + f[hi] if lo != hi else f[lo]
                    for lo, hi in zip(low.tolist(), high.tolist())]
            assert tuple(np.repeat(np.arange(len(low)), mass)) in images


@pytest.mark.parametrize("n", [126, 127, 128, 129])
def test_count_rows_hold_a_count_of_n(n):
    """At p = 1 the pair classes are {1, 3} and {2}, and no column
    operation moves either, so the orbits are the n + 1 rows (a, n - a).
    Every F, ranked one by one from its own table sum, against every
    orbit expanded, and the search winners against its head: the rows
    (n - 1, 0) and (n, 0) need a count of n, which int8 cannot hold at
    n = 128, nor its radix n + 1 at n = 127."""
    f1, f2 = np.triu_indices(n + 1)
    fmat = np.stack([0 * f1, f1, f2 - f1, n - f2], axis=1)
    assert len(fmat) == _candidate_count(n, 1)
    reps = _orbit_representatives(n, 1)
    assert sorted(map(tuple, reps.tolist())) \
        == [(a, n - a) for a in range(n + 1)]
    for criterion in ("max_resolution", "gma"):
        keys = _key_tuples(_dual_keys(
            fmat[:, 1:] @ _cell_terms(1)[1:].astype(np.int64), n, 1,
            criterion), n, 1, criterion)
        want = sorted(zip(keys, map(tuple, fmat.tolist())))
        ranked, rows = _ranked_orbits(n, 1, criterion)
        ranked = _key_tuples(ranked, n, 1, criterion)
        got = [(key, f) for key, counts in zip(ranked, rows)
               for f in _orbit_frequencies(counts, 1)]
        assert sorted(got) == want
        best = _best_frequencies(n, 1, criterion, len(want))
        assert [f.counts for f in best] == [f for _, f in want]
        winners = search(n, 1, criterion, top=3)
        assert [f.counts for f, _ in winners] == [f for _, f in want[:3]]


@pytest.mark.parametrize("n, p", list(itertools.product((1, 2, 3),
                                                        (1, 2, 3))))
def test_orbit_ranking_expands_to_full_ranking(n, p):
    """Every orbit, expanded, against every candidate scored one by one:
    the same (key, F) pairs, so each candidate is in exactly one orbit and
    shares its representative's key; and the top list at cuts through
    ties equals the head of the full ranking."""
    rows = np.array(list(itertools.combinations_with_replacement(
        range(1, 4 ** p), n)))
    fmat = np.zeros((len(rows), 4 ** p), dtype=np.int64)
    np.add.at(fmat, (np.arange(len(rows))[:, None], rows), 1)
    for criterion in ("max_resolution", "gma"):
        keys = _row_keys(rows, p, criterion)
        want = sorted(zip(keys, map(tuple, fmat.tolist())))
        ranked, reps = _ranked_orbits(n, p, criterion)
        ranked = _key_tuples(ranked, n, p, criterion)
        assert ranked == sorted(ranked) and len(reps) == len(ranked)
        got = []
        for key, counts in zip(ranked, reps):
            got += [(key, f) for f in _orbit_frequencies(counts, p)]
        assert sorted(got) == want
        for top in (1, 2, 3, 7, 50):
            best = _best_frequencies(n, p, criterion, top)
            assert [f.counts for f in best] == [f for _, f in want[:top]]
