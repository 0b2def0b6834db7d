"""Acceptance gate: nine criteria, one test each.

Every test pins exact values (integer or Fraction equality, no float
tolerance) plus the runtime budget it must meet.

Criterion 2 confirms every entry of the closed-form K vector on the
built design itself, one word per canonical wordtype, before pinning
the whole vector against the frozen data.
"""

import time
from fractions import Fraction

from conftest import random_generator, random_precondition_generator
from qcode import (all_odd_closed_form, analyze, build_design,
                   build_system, canonical_wordtypes, evaluate,
                   fixed_point_7, frequency_vector, j_characteristic,
                   lee_weight, load_matrices, periodic_extend, search,
                   spectrum_bruteforce, summarize, theory_spectrum)
from qcode.equations import cells, is_canonical, negate
from qcode.z4 import FrequencyVector, GeneratorSpec
from itertools import product


def test_criterion_01_frozen_matrices(systems):
    start = time.perf_counter()
    for p, c_shape, b_shape in ((1, (2, 4), (1, 4)),
                                (2, (9, 16), (3, 16)),
                                (3, (35, 64), (7, 64))):
        frozen = load_matrices(p)
        sysm = systems[p]
        c = sysm.c_matrix()
        b = sysm.b_matrix()
        assert (len(c), len(c[0])) == c_shape
        assert (len(b), len(b[0])) == b_shape
        assert [list(r) for r in c] == frozen["C"]
        assert [list(r) for r in b] == frozen["B"]
        assert list(sysm.constants) == frozen["constants"]
        assert list(sysm.deltas) == frozen["deltas"]
    constants = systems[3].constants
    assert constants[:12] == (1, 1, 1) + (2,) * 9
    assert constants[-1] == 6
    assert all(a <= b for a, b in zip(constants, constants[1:]))
    assert systems[3].deltas == (0, 0, 0, 1, 1, 1, 0)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_reference_design_end_to_end(design256):
    g, data = design256
    start = time.perf_counter()
    rep = analyze(g, method="theory")
    theory_elapsed = time.perf_counter() - start

    assert list(rep.a_values) == [3, 3, 3, 2, 2, 2, 1]
    by_rho = {}
    for length, rho, count in rep.spectrum.entries:
        by_rho.setdefault(rho, {})[length] = count
    assert by_rho[Fraction(1, 2)] == {6: 168, 10: 56}
    assert sum(by_rho[Fraction(1, 2)].values()) == 224
    assert by_rho[Fraction(1)] == {8: 7}
    assert list(rep.summary.gwlp) == [0, 0, 0, 42, 0, 7, 0, 14, 0, 0,
                                      0, 0]
    assert rep.summary.resolution == Fraction(13, 2)
    assert theory_elapsed < 1.0

    start = time.perf_counter()
    design = build_design(g)
    brute = spectrum_bruteforce(design, 10)
    assert brute == rep.spectrum
    assert time.perf_counter() - start < 60.0

    # The dual word u = (w, -Vw) has Lee weight Lee(w) + K_w.  Taking
    # both Gray columns of each 2 in u and one of the two for each odd
    # entry, some choice must be a word of the design (J != 0).
    start = time.perf_counter()
    for w, k in zip(canonical_wordtypes(3), rep.k_values):
        u = w + tuple(-sum(v * x for v, x in zip(row, w)) % 4
                      for row in g.V)
        both = [c for j, x in enumerate(u) if x == 2
                for c in (2 * j + 1, 2 * j + 2)]
        odd = [j for j, x in enumerate(u) if x % 2]
        assert len(both) + len(odd) == sum(map(lee_weight, w)) + k, w
        assert any(j_characteristic(design, both + [2 * j + 1 + b for j, b
                                                    in zip(odd, bits)])
                   for bits in product((0, 1), repeat=len(odd))), w
    assert time.perf_counter() - start < 5.0

    assert list(rep.k_values) == data["K"], (
        "closed-form K (confirmed word by word on the design above) "
        "differs from the frozen vector")


def test_criterion_03_oracle_equivalence(rng):
    start = time.perf_counter()
    for p in (1, 2):
        for _ in range(50):
            g = random_generator(rng, int(rng.integers(2, 5)), p)
            analyze(g, method="both")
    for _ in range(50):
        g = random_precondition_generator(rng, int(rng.integers(3, 5)))
        f = frequency_vector(g)
        d = build_design(g)
        assert theory_spectrum(f) == spectrum_bruteforce(d, d.factors)
    assert time.perf_counter() - start < 600.0


def test_criterion_04_all_odd_structure():
    start = time.perf_counter()
    for p in (1, 2, 3, 4, 5):
        eq = all_odd_closed_form(p)
        counts = {c: eq.coeffs.count(c) for c in (0, 1, 2)}
        assert counts[1] == 2 ** (2 * p - 1)
        assert counts[0] == 2 ** (2 * p - 2)
        assert counts[2] == 2 ** (2 * p - 2)
        for target in (0, 2):
            even_cells = sum(
                1 for i, c in zip(cells(p), eq.coeffs)
                if c == target and all(x % 2 == 0 for x in i))
            assert even_cells == 2 ** (p - 1)
    assert time.perf_counter() - start < 1.0


def test_criterion_05_wordtype_counts(systems):
    start = time.perf_counter()
    for p, want in ((1, 2), (2, 9), (3, 35), (4, 135)):
        got = canonical_wordtypes(p)
        assert len(got) == want
        assert len(got) == 2 ** p - 1 + 2 ** (2 * p - 1) - 2 ** (p - 1)
    for p in (1, 2, 3):
        sysm = systems[p]
        for w in product(range(4), repeat=p):
            if not any(w) or is_canonical(w):
                continue
            assert sysm.k_equation(w).coeffs \
                == sysm.k_equation(negate(w)).coeffs
    assert time.perf_counter() - start < 5.0


def test_criterion_06_periodic_extension(f256, examples, rng):
    start = time.perf_counter()
    ex = examples["periodic_extension"]
    fam = periodic_extend(f256, 1)
    assert list(fam.extended.counts) == ex["Ft"]
    assert fam.predicted_r == 70
    assert fam.predicted_rho == Fraction(1, 2 ** 17)
    assert fixed_point_7(fam.predicted_resolution) == "70.9999924"

    for _ in range(100):
        counts = tuple(int(x) for x in rng.integers(0, 4, size=64))
        f0 = FrequencyVector(3, counts)
        base = evaluate(f0)
        for t in (1, 2, 3):
            shifted_counts = tuple(c if i == 0 else c + t
                                   for i, c in enumerate(counts))
            shifted = evaluate(FrequencyVector(3, shifted_counts))
            assert all(b - a == 64 * t for a, b in
                       zip(base.k_values, shifted.k_values))
            assert all(b - a == 32 * t for a, b in
                       zip(base.a_values, shifted.a_values))
    assert time.perf_counter() - start < 5.0


def test_criterion_07_operator_fixtures(examples, systems):
    start = time.perf_counter()
    from qcode import ca_add
    ex = examples["oplus_p2"]
    sysm = systems[2]
    k10 = sysm.k_equation((1, 0))
    k02 = sysm.k_equation((0, 2))
    total = ca_add(k10, k02, wtype=(1, 2))
    assert list(total.coeffs) == ex["sum"]
    assert total.coeffs[5] == 1   # cell (1,1)
    assert total.coeffs[9] == 0   # cell (2,1)

    part = examples["all_odd_p2_partition"]
    eq = all_odd_closed_form(2)
    labels = {c: {f"{i >> 2}{i & 3}" for i, x in enumerate(eq.coeffs)
                  if x == c} for c in (0, 1, 2)}
    assert labels[0] == set(part["zero_cells"])
    assert labels[1] == set(part["one_cells"])
    assert labels[2] == set(part["two_cells"])
    assert time.perf_counter() - start < 1.0


def test_criterion_08_gwlp_mass_law(rng):
    start = time.perf_counter()
    for _ in range(50):
        g = random_precondition_generator(rng, int(rng.integers(3, 7)))
        f = frequency_vector(g)
        theory_sum = sum(rho ** 2 * count
                         for _, rho, count in theory_spectrum(f).entries)
        assert theory_sum == 63
        d = build_design(g)
        brute = spectrum_bruteforce(d, d.factors)
        assert sum(summarize(brute, d.factors).gwlp) == 63
    assert time.perf_counter() - start < 300.0


def test_criterion_09_search_sanity():
    start = time.perf_counter()
    results = search(4, 3, criterion="max_resolution", top=1)
    best_f, best_rep = results[0]
    assert best_rep.summary.resolution >= Fraction(13, 2)
    assert sum(best_f.counts) == 4
    assert time.perf_counter() - start < 600.0
