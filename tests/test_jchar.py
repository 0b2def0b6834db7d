"""Brute-force oracle: J-characteristics, spectra, GWLP, resolution.

The small frozen spectra here were computed by the oracle itself and
then pinned, so they guard against regressions, not against the oracle
being wrong on day one; the independent closed-form checks live in
test_theory.py where the two routes are compared.
"""

import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_generator
from qcode import (BinaryDesign, BudgetExceeded, GeneratorSpec,
                   WordSpectrum, aliasing_index, analyze, build_design,
                   duplicated_column_pairs, j_characteristic,
                   load_examples, spectrum_bruteforce, summarize)
from qcode import jchar
from qcode.jchar import (_cell_keys, _popcount, _spectrum_dfs, _spectrum_wht,
                         _subset_j, _wht_in_place,
                         negation_masks, scan_cost, walsh_hadamard)

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def d16x6():
    return build_design(GeneratorSpec(2, 1, ((1,), (1,))))


def test_j_characteristic_values(d16x6):
    assert j_characteristic(d16x6, (1, 3, 5)) == 8
    assert j_characteristic(d16x6, (1, 4, 6)) == -8
    assert j_characteristic(d16x6, (1, 2, 3, 4, 5, 6)) == 16
    assert j_characteristic(d16x6, (1, 2)) == 0


def test_j_full_design_row_sum():
    # single-column subsets: balanced columns sum to zero
    d = build_design(GeneratorSpec(1, 1, ((1,),)))
    assert all(j_characteristic(d, (c,)) == 0 for c in range(1, 5))


def test_j_subset_validation(d16x6):
    with pytest.raises(ValueError):
        j_characteristic(d16x6, (1, 1, 2))
    with pytest.raises(ValueError):
        j_characteristic(d16x6, (0, 1))
    with pytest.raises(ValueError):
        j_characteristic(d16x6, (5, 6, 7))


def test_j_invariances(d16x6, rng):
    s = (1, 3, 5)
    assert j_characteristic(d16x6, (5, 1, 3)) == j_characteristic(d16x6, s)
    shuffled = BinaryDesign(d16x6.runs, d16x6.factors,
                            d16x6.cells[rng.permutation(16)])
    assert j_characteristic(shuffled, s) == j_characteristic(d16x6, s)


def test_column_negation_flips_j_only(d16x6):
    rows = d16x6.cells.copy()
    rows[:, 0] *= -1
    neg = BinaryDesign(d16x6.runs, d16x6.factors, rows)
    assert j_characteristic(neg, (1, 3, 5)) == -8
    assert j_characteristic(neg, (3, 5, 6)) == j_characteristic(
        d16x6, (3, 5, 6))
    assert spectrum_bruteforce(neg, 6) == spectrum_bruteforce(d16x6, 6)


def test_aliasing_index(d16x6):
    assert aliasing_index(d16x6, (1, 3, 5)) == HALF
    assert aliasing_index(d16x6, (1, 2, 3, 4, 5, 6)) == 1
    assert aliasing_index(d16x6, (1, 2)) == 0


def test_spectrum_16x6(d16x6):
    spec = spectrum_bruteforce(d16x6, 6)
    assert spec.entries == ((3, HALF, 8), (6, Fraction(1), 1))
    assert spec.total_words() == 9
    assert spec.is_dyadic()


def test_spectrum_4x6_all_complete():
    d = build_design(GeneratorSpec(1, 2, ((3, 1),)))
    spec = spectrum_bruteforce(d, 6)
    assert spec.entries == ((4, Fraction(1), 9),)


def test_rho_dyadic_random(rng):
    for _ in range(10):
        d = build_design(random_generator(rng, 2, 2))
        for s in combinations(range(1, d.factors + 1), 3):
            rho = aliasing_index(d, s)
            if rho:
                assert rho.numerator == 1
                assert rho.denominator & (rho.denominator - 1) == 0


def test_gwlp_additivity(d16x6):
    spec = spectrum_bruteforce(d16x6, 6)
    summary = summarize(spec, d16x6.factors)
    for k in range(3, 7):
        direct = sum((aliasing_index(d16x6, s) ** 2
                      for s in combinations(range(1, 7), k)),
                     Fraction(0))
        assert summary.gwlp[k - 3] == direct


def test_summarize_single_word():
    spec = WordSpectrum(((4, Fraction(1), 1),))
    summary = summarize(spec, 4)
    assert summary.resolution == 4
    assert summary.gwlp == (Fraction(0), Fraction(1))
    assert summary.resolution_text() == "4"


def test_summarize_mixed_rho_at_min_length():
    spec = WordSpectrum(((5, Fraction(1, 4), 2), (5, HALF, 1)))
    summary = summarize(spec, 5)
    # resolution keys off the worst (largest) rho at the minimum length
    assert summary.max_rho_at_min_length == HALF
    assert summary.resolution == Fraction(11, 2)
    assert summary.gwlp == (Fraction(0), Fraction(0), Fraction(3, 8))


def test_summarize_no_words_sentinel():
    summary = summarize(WordSpectrum(()), 8, scanned_length=4)
    assert summary.resolution is None
    assert summary.resolution_text() == "> 4"


def test_word_spectrum_validation():
    with pytest.raises(ValueError):
        WordSpectrum(((2, HALF, 1),))
    with pytest.raises(ValueError):
        WordSpectrum(((3, Fraction(3, 2), 1),))
    with pytest.raises(ValueError):
        WordSpectrum(((3, HALF, 1), (3, HALF, 2)))


def test_duplicated_column_pairs():
    d = build_design(GeneratorSpec(1, 1, ((2,),)))
    assert duplicated_column_pairs(d) == [(1, 2, 1)]
    clean = build_design(GeneratorSpec(2, 1, ((1,), (1,))))
    assert duplicated_column_pairs(clean) == []


def test_walsh_hadamard_delta_and_involution(rng):
    delta = np.zeros(8, dtype=np.int64)
    delta[0] = 1
    assert (walsh_hadamard(delta) == 1).all()
    v = rng.integers(-5, 5, size=16).astype(np.int64)
    assert (walsh_hadamard(walsh_hadamard(v)) == 16 * v).all()
    # leading axes are a batch: each row is transformed on its own
    batch = rng.integers(-5, 5, size=(3, 4, 32)).astype(np.int64)
    rows = np.stack([walsh_hadamard(r) for r in batch.reshape(12, 32)])
    assert (walsh_hadamard(batch) == rows.reshape(3, 4, 32)).all()
    # the transform runs in the input's dtype and leaves the input alone
    small = batch.astype(np.int16)
    got = walsh_hadamard(small)
    assert got.dtype == np.int16
    assert (got.astype(np.int64) == walsh_hadamard(batch)).all()
    assert (small == batch).all()
    assert (walsh_hadamard(np.array([7])) == 7).all()


def _wht_reference(a):
    """The unblocked two-buffer transform: each constant-geometry stage
    writes neighbouring pairs' sums and differences to the other buffer's
    two halves, reading stride-2 views."""
    half = a.shape[-1] // 2
    buf = np.empty_like(a)
    for _ in range(half.bit_length()):
        even, odd = a[..., 0::2], a[..., 1::2]
        np.add(even, odd, out=buf[..., :half])
        np.subtract(even, odd, out=buf[..., half:])
        a, buf = buf, a
    return a


def _histogram(rng, factors, dtype):
    """Mask counts summing to the dtype's largest value, as runs: random
    counts on a few cells of odd size, so the transform reaches +runs at
    S = 0 and -runs at S = every column."""
    runs = np.iinfo(dtype).max
    counts = np.zeros(1 << factors, dtype=dtype)
    odd = np.flatnonzero(_popcount(np.arange(1 << factors)) & 1)
    if not len(odd):
        counts[0] = runs
        return counts
    counts[rng.choice(odd, 40)] = rng.integers(0, runs // 40 + 1, 40)
    counts[odd[0]] += runs - counts.sum(dtype=np.int64)
    return counts


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_blocked_wht_matches_the_two_buffer_transform(rng, dtype):
    for factors in range(23):
        counts = _histogram(rng, factors, dtype)
        want = _wht_reference(counts.copy())
        got = _wht_in_place(counts.copy())
        assert got.dtype == dtype and (got == want).all(), factors
        if factors:
            assert want[0] == np.iinfo(dtype).max == -want[-1]


@pytest.mark.parametrize("block_bits", [1, 2, 3])
def test_blocked_wht_at_every_block_split(monkeypatch, rng, block_bits):
    """Small blocks put every case in reach: fewer factors than block
    bits, as many, up to twice as many, and more, where the high bits
    take several passes; and a batch of rows, which shares the blocks
    when the rows are short."""
    monkeypatch.setattr(jchar, "_WHT_BLOCK_BITS", block_bits)
    for factors in range(11):
        for dtype in (np.int8, np.int16, np.int32):
            counts = _histogram(rng, factors, dtype)
            want = _wht_reference(counts.copy())
            assert (_wht_in_place(counts.copy()) == want).all(), factors
        batch = rng.integers(-5, 5, (3, 1 << factors))
        assert (_wht_in_place(batch.copy()) == _wht_reference(batch)).all()


def test_negation_masks_match_cells(d16x6):
    masks = negation_masks(d16x6)
    cells = np.asarray(d16x6.cells)
    for r in range(d16x6.runs):
        for c in range(d16x6.factors):
            assert bool((masks[r] >> c) & 1) == (cells[r, c] == -1)


def test_negation_masks_stop_at_63_factors():
    # 62 factors fit the int64 masks exactly; 64 would wrap, so they refuse
    wide = build_design(GeneratorSpec(1, 30, ((1, 2, 3) * 10,)))
    exact = [sum(1 << c for c in range(wide.factors) if row[c] < 0)
             for row in np.asarray(wide.cells).tolist()]
    assert negation_masks(wide).tolist() == exact
    too_wide = build_design(GeneratorSpec(1, 31, ((1, 2, 3) * 10 + (1,),)))
    assert (too_wide.runs, too_wide.factors) == (4, 64)
    with pytest.raises(ValueError, match="at most 63 factors, got 64"):
        negation_masks(too_wide)


def test_masks_and_histogram_across_chunks(monkeypatch, rng):
    """Chunks of 3 runs: the masks are packed chunk by chunk, and a mask
    repeated in several chunks adds each chunk's count to its cell."""
    base = rng.choice([-1, 1], size=(4, 9)).astype(np.int8)
    d = BinaryDesign(14, 9, np.vstack([base, base, base, base[:2]]))
    whole = negation_masks(d)
    monkeypatch.setattr(jchar, "_MASK_RUNS", 3)
    assert negation_masks(d).tolist() == whole.tolist()
    assert _spectrum_dfs(d, 9) == _spectrum_wht(d, 9)


def test_dfs_agrees_with_wht(rng):
    for _ in range(3):
        d = build_design(random_generator(rng, 2, 2))
        assert _spectrum_dfs(d, 8) == _spectrum_wht(d, 8)
    # a run count that is not a multiple of 8 pads the packed columns
    odd = BinaryDesign(13, 7, rng.choice([-1, 1], size=(13, 7)).astype(np.int8))
    assert _spectrum_dfs(odd, 7) == _spectrum_wht(odd, 7)


def test_dfs_agrees_with_wht_on_repeated_runs_and_complete_words(rng):
    # repeated runs put counts above 1 in the mask histogram
    base = rng.choice([-1, 1], size=(8, 7)).astype(np.int8)
    repeated = BinaryDesign(19, 7, np.vstack([base, base, base[:3]]))
    # columns a, b, c, ab, -abc, bc of the 2^3 factorial: the words
    # {a, b, ab}, {a, b, c, -abc}, ... have |j| = runs, and j = -runs too
    full = np.array([[1 - 2 * ((r >> k) & 1) for k in range(3)]
                     for r in range(8)])
    a, b, c = full.T
    complete = BinaryDesign(8, 6, np.stack(
        [a, b, c, a * b, -a * b * c, b * c], axis=1).astype(np.int8))
    assert {abs(int(j)) for j in _subset_j(complete)} >= {8}
    for d in (repeated, complete):
        for max_len in range(3, d.factors + 1):
            assert _spectrum_dfs(d, max_len) == _spectrum_wht(d, max_len)


def test_dfs_agrees_with_wht_across_two_blocks(rng):
    """18 factors are two WHT blocks, so the tally adds the second
    block's subset sizes to its index's popcount; repeated runs put
    counts above 1 in the histogram."""
    base = rng.choice([-1, 1], size=(60, 18)).astype(np.int8)
    d = BinaryDesign(150, 18, np.vstack([base, base, base[:30]]))
    assert 1 << d.factors == 2 << jchar._WHT_BLOCK_BITS
    assert _spectrum_dfs(d, 18) == _spectrum_wht(d, 18)


def test_popcount_without_bitwise_count(monkeypatch, rng):
    """The fallback for a numpy without `bitwise_count` (numpy < 2)
    against Python's `int.bit_count`: the same counts, as uint8, with the
    top bits set and, on int64, negative values (counted on |a|).  On
    numpy < 2 the fallback is the only path, and this runs it as is."""
    samples = {
        np.uint8: [0, 1, 0x80, 0xFF],
        np.uint32: [0, 1, 0x80000000, 0xFFFFFFFF, 0x7FFFFFFF],
        np.int64: [0, 1, -1, 2 ** 62, 2 ** 63 - 1, -2 ** 63, -2 ** 62 - 7],
    }
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    for dtype, values in samples.items():
        a = np.array(values + rng.integers(0, 255, 8).tolist(), dtype=dtype)
        a = np.stack([a, a[::-1]])
        got = _popcount(a)
        assert got.dtype == np.uint8
        assert got.tolist() == [[abs(v).bit_count() for v in row]
                                for row in a.tolist()]


def test_cell_keys_are_int64_past_a_uint8_product(rng):
    # runs = 64: width 65, so size 4 gives 260, past uint8
    sizes = np.array([3, 4, 4, 20], dtype=np.uint8)
    j = np.array([-64, 64, -1, 2], dtype=np.int8)
    keys = _cell_keys(sizes, j, 64)
    assert keys.dtype == np.int64
    assert keys.tolist() == [3 * 65 + 0, 4 * 65 + 0, 4 * 65 + 63, 20 * 65 + 62]
    d = BinaryDesign(64, 8, rng.choice([-1, 1], size=(64, 8)).astype(np.int8))
    assert _spectrum_dfs(d, 8) == _spectrum_wht(d, 8)


def test_scan_spectra_leave_in_canonical_order(monkeypatch, rng):
    """Both scans hand `WordSpectrum` their cells already by length, then
    largest rho first, so it never takes its sort path.  The designs are
    random +-1 matrices: run counts that are no power of 2 (non-dyadic
    rho), repeated runs, and 18 factors (two WHT blocks)."""
    designs = [BinaryDesign(runs, factors, rng.choice(
        [-1, 1], size=(runs, factors)).astype(np.int8))
        for runs, factors in ((13, 7), (24, 9), (64, 8), (100, 10))]
    for runs, factors, rows in ((19, 7, 8), (50, 18, 20)):
        base = rng.choice([-1, 1], size=(rows, factors)).astype(np.int8)
        designs.append(BinaryDesign(runs, factors, np.resize(
            base, (runs, factors))))
    real, seen = jchar._checked_in_order, []

    def checked(entries):
        seen.append(real(entries))
        return seen[-1]

    monkeypatch.setattr(jchar, "_checked_in_order", checked)
    for d in designs:
        scans = [_spectrum_wht(d, d.factors)]
        if d.factors <= 10:
            scans += [_spectrum_dfs(d, d.factors), _spectrum_dfs(d, 5)]
        for spec in scans:
            assert len(spec.entries) > 1
            want = sorted(spec.entries, key=lambda e: (e[0], -e[1]))
            assert list(spec.entries) == want
            assert WordSpectrum(spec.entries).entries is spec.entries
    assert seen and all(seen)


def _subset_j_reference(d):
    """The mask histogram, each distinct mask once with its count, then
    the unblocked two-buffer transform."""
    counts = np.zeros(1 << d.factors, dtype=np.min_scalar_type(-d.runs - 1))
    cells, n = np.unique(negation_masks(d), return_counts=True)
    counts[cells] += n
    return _wht_reference(counts)


def _gathered_bits(monkeypatch, d):
    """`_subset_j(d)` and the low bits it handed the kernel as done."""
    done, kernel = [], jchar._wht_in_place

    def spy(a, bits=0, *wide):
        done.append(bits)
        return kernel(a, bits, *wide)

    monkeypatch.setattr(jchar, "_wht_in_place", spy)
    j = _subset_j(d)
    monkeypatch.setattr(jchar, "_wht_in_place", kernel)
    return j, done[-1]


@pytest.mark.parametrize("p, b", [(1, 2), (2, 4), (3, 6), (4, 8), (5, 8)])
def test_subset_j_gathers_hadamard_rows_of_a_code_design(monkeypatch, rng,
                                                         p, b):
    """b = 2p low bits come from the gather at every p, down to rows of
    2^2 cells at p = 1, capped at 8 (p = 5 leaves rows that no run
    hits)."""
    for n in range(1, 9 - p):
        d = build_design(random_generator(rng, n, p))
        want = _subset_j_reference(d)
        got, done = _gathered_bits(monkeypatch, d)
        assert got.dtype == want.dtype and (got == want).all(), (p, n)
        assert done == b


@pytest.mark.parametrize("runs, factors", [(1, 3), (1, 9), (13, 7), (13, 10),
                                           (70, 5), (150, 12), (150, 18)])
def test_subset_j_sums_the_rows_of_repeated_runs(monkeypatch, rng, runs,
                                                 factors):
    """Random designs with repeated runs: a run count that is no power of
    2 puts several runs in a row, and copies put one mask in a row
    several times; (70, 5) has more runs than cells, so b clamps at 0;
    (150, 18) spans two WHT blocks."""
    base = rng.choice([-1, 1], size=(max(1, runs // 3), factors))
    d = BinaryDesign(runs, factors,
                     np.vstack([base] * 4)[:runs].astype(np.int8))
    want = _subset_j_reference(d)
    got, done = _gathered_bits(monkeypatch, d)
    assert got.dtype == want.dtype and (got == want).all()
    low = factors - (runs.bit_length() - 1)
    assert done == max(0, min(low, 8))


@pytest.mark.parametrize("factors", [3, 5, 7, 9])
def test_spectrum_of_a_design_with_no_runs_is_empty(factors):
    """No runs: the gather's row bits stay within the factors, and every
    j is 0."""
    d = BinaryDesign(0, factors, np.zeros((0, factors), dtype=np.int8))
    assert (_subset_j(d) == 0).all()
    assert spectrum_bruteforce(d, 3).entries == ()


@pytest.mark.parametrize("block_bits", [1, 2, 3])
def test_subset_j_at_every_block_split(monkeypatch, rng, block_bits):
    """Blocks of 2^1..2^3 cells cap the gather at b = 0 (the histogram)
    or at 1 bit, and make it run in chunks of a few runs."""
    monkeypatch.setattr(jchar, "_WHT_BLOCK_BITS", block_bits)
    designs = [build_design(random_generator(rng, n, p))
               for p, n in ((1, 2), (2, 2), (3, 1))]
    base = rng.choice([-1, 1], size=(5, 9)).astype(np.int8)
    designs.append(BinaryDesign(13, 9, np.vstack([base, base, base[:3]])))
    for d in designs:
        want = _subset_j_reference(d)
        got = _subset_j(d)
        assert got.dtype == want.dtype and (got == want).all()


@pytest.mark.parametrize("block_bits", [1, 2, 3, 17])
def test_wht_skips_the_bits_already_done(monkeypatch, rng, block_bits):
    """Input transformed on its low `done` bits only, by the reference
    on rows of 2^done cells: the kernel's remaining bits give the whole
    transform, for one axis and a batch."""
    monkeypatch.setattr(jchar, "_WHT_BLOCK_BITS", block_bits)
    for factors in range(11):
        for done in range(factors + 1):
            a = rng.integers(-5, 5, (3, 1 << factors))
            low = _wht_reference(a.reshape(3, -1, 1 << done).copy())
            want = _wht_reference(a.copy())
            low = low.reshape(a.shape)
            for x, w in ((low, want), (low[0], want[0])):
                assert (_wht_in_place(x.copy(), done) == w).all(), (
                    factors, done)


def _traced_peak(call):
    """`call()` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        got = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, peak


@pytest.mark.parametrize("kind", ["random", "code"])
def test_subset_j_transforms_in_one_buffer_and_a_block(rng, kind):
    """A random 64-run design and a p = 3 code's design: the gather fills
    the transform's one buffer straight from the Hadamard rows (b = 8
    and 6), with its indexes freed before the buffer is made, plus a
    scratch block of 2^17 cells (1/8 of it here); a second buffer would
    double it.  Both buffers already hold +-runs (int8 and int16), so
    there is no wide copy."""
    if kind == "code":
        d = build_design(random_generator(rng, 7, 3))
    else:
        d = BinaryDesign(64, 20, rng.choice([-1, 1], size=(64, 20)).astype(
            np.int8))
    assert d.factors == 20
    j, peak = _traced_peak(lambda: _subset_j(d))
    assert j.size == 1 << 20
    assert peak < 1.25 * j.nbytes


def _generator_22():
    """A p = 3, n = 8 generator: 65,536 runs by 22 factors, with words of
    rho = 1 (|j| = runs, past int16)."""
    v = load_examples()["design_256x14"]["V"] + [[2, 3, 1], [3, 1, 2],
                                                [3, 2, 3], [1, 1, 3]]
    return GeneratorSpec(8, 3, tuple(map(tuple, v)))


def test_spectrum_of_22_factors_tallies_strips_of_a_narrow_buffer():
    """The runs of one 2^17-cell block (2,048 here) fit int16, so the
    22-factor buffer is int16 and the high bits are finished in int32
    strips, tallied as they finish: the traced peak stays near the int16
    buffer (an int32 one is 16 MiB), and the rho = 1 words, whose j =
    +-65,536 no int16 holds, are counted, as the closed form has them."""
    g = _generator_22()
    d = build_design(g)
    buf, b, wide = jchar._rows_from_runs(d)
    assert (buf.dtype, b, wide) == (np.int16, 6, np.int32)
    del buf
    spec, peak = _traced_peak(lambda: _spectrum_wht(d, d.factors))
    assert peak < 1.25 * (1 << 22) * 2
    assert (10, Fraction(1), 1) in spec.entries
    assert spec == analyze(g, method="theory").spectrum


@pytest.mark.parametrize("block_bits", [3, 4, 5])
def test_narrow_buffer_when_no_block_holds_more_than_127_runs(
        monkeypatch, rng, block_bits):
    """Over 127 runs, but at most 127 in any one WHT block: the buffer is
    int8, the strips are finished in int16, and j and the spectrum match
    the references; a code's design, random runs, and more runs than
    cells (the histogram fill, b = 0).  When every run shares one block,
    the buffer keeps the wide type."""
    monkeypatch.setattr(jchar, "_WHT_BLOCK_BITS", block_bits)
    one_block = rng.choice([-1, 1], (200, 9)).astype(np.int8)
    one_block[:, block_bits:] = 1  # every mask below 2^block_bits
    for d, narrow in (
            (build_design(random_generator(rng, 4, 1)), np.int8),
            (BinaryDesign(200, 9, rng.choice([-1, 1], (200, 9)).astype(
                np.int8)), np.int8),
            (BinaryDesign(200, 6, rng.choice([-1, 1], (200, 6)).astype(
                np.int8)), np.int8),
            (BinaryDesign(200, 9, one_block), np.int16)):
        buf, b, wide = jchar._rows_from_runs(d)
        assert (buf.dtype, wide) == (narrow, np.int16)
        strips = [x.dtype for _, x in jchar._finished_strips(buf, b, wide)]
        assert set(strips) == {np.dtype(np.int16)}
        want = _subset_j_reference(d)
        got = _subset_j(d)
        assert got.dtype == want.dtype == np.int16 and (got == want).all()
        assert _spectrum_wht(d, d.factors) == _spectrum_dfs(d, d.factors)


_RHOS = st.integers(1, 30).flatmap(
    lambda den: st.builds(Fraction, st.integers(1, den), st.just(den)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(3, 8), _RHOS),
                       st.integers(1, 5), max_size=12), st.randoms())
def test_summarize_and_order_match_fraction_reference(cells, shuffle):
    """Entries with rhos over mixed, non-dyadic denominators: the int
    sort key and the int GWLP sums agree with plain Fraction work."""
    entries = [(length, rho, count) for (length, rho), count in cells.items()]
    shuffle.shuffle(entries)
    spec = WordSpectrum(tuple(entries))
    assert spec.entries == tuple(sorted(entries, key=lambda e: (e[0], -e[1])))
    gwlp = [Fraction(0)] * 6
    for length, rho, count in entries:
        gwlp[length - 3] += count * rho * rho
    summary = summarize(spec, 8)
    assert summary.gwlp == tuple(gwlp)
    if entries:
        r = min(length for length, _, _ in entries)
        worst = max(rho for length, rho, _ in entries if length == r)
        assert summary.max_rho_at_min_length == worst
        assert summary.resolution == r + 1 - worst
    else:
        assert summary.resolution is None


def _canonical(entries) -> tuple:
    """The reference order: length ascending, then rho largest first."""
    return tuple(sorted(entries, key=lambda e: (e[0], -e[1])))


#: cells that break a check, each made from a valid (length, rho, count),
#: and the message each raises
_BAD_CELLS = (
    ("duplicate spectrum cell", lambda l, rho, c: (l, rho, c + 1)),
    ("below 3", lambda l, rho, c: (l % 3, rho, c)),
    (r"outside \(0, 1\]", lambda l, rho, c: (l, Fraction(0), c)),
    (r"outside \(0, 1\]", lambda l, rho, c: (l, 1 + rho, c)),
    ("must be positive", lambda l, rho, c: (l, rho, 0)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(3, 40), _RHOS),
                       st.integers(1, 9), min_size=1, max_size=16),
       st.randoms(), st.sampled_from(_BAD_CELLS))
def test_word_spectrum_checks_cells_in_one_ordered_pass(cells, shuffle, bad):
    """Canonical input is kept as it is, any other order is sorted, and a
    bad cell raises wherever it sits."""
    entries = [(length, rho, count) for (length, rho), count in cells.items()]
    ordered = _canonical(entries)
    assert WordSpectrum(ordered).entries is ordered
    shuffle.shuffle(entries)
    assert WordSpectrum(tuple(entries)).entries == ordered
    message, make = bad
    broken = entries + [make(*shuffle.choice(entries))]
    shuffle.shuffle(broken)
    for spelled in (_canonical(broken), tuple(broken)):
        with pytest.raises(ValueError, match=message):
            WordSpectrum(spelled)


def test_scan_budget_refusal():
    wide = BinaryDesign(16, 34, np.ones((16, 34), dtype=np.int8))
    assert scan_cost(34, 16, 34) > 10 ** 10
    with pytest.raises(BudgetExceeded):
        spectrum_bruteforce(wide, 34)
    # a shallow scan of the same design stays under the guard
    spectrum_bruteforce(wide, 3)


def test_scan_budget_prices_each_visited_subset(monkeypatch):
    # one run costs almost nothing per subset in cells, but the scan
    # would still visit 2^33 subsets at a fixed cost each
    def walk(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(jchar, "_spectrum_dfs", walk)
    tiny = BinaryDesign(1, 33, np.ones((1, 33), dtype=np.int8))
    with pytest.raises(BudgetExceeded):
        spectrum_bruteforce(tiny, 33)
