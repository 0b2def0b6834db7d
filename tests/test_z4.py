"""Construction layer: Gray map, codeword enumeration, design assembly."""

import json

import numpy as np
import pytest

from conftest import random_generator
from qcode import (BudgetExceeded, FrequencyVector, GeneratorSpec,
                   build_design, codewords, design_from_text,
                   design_to_text, frequency_vector,
                   generator_for_frequency, gray_map, lee_weight,
                   load_generator, save_generator)
from qcode.equations import cells
from qcode.z4 import cell_digits, cell_index

GRAY = {0: (1, 1), 1: (1, -1), 2: (-1, -1), 3: (-1, 1)}


def test_gray_map_table():
    for x, pair in GRAY.items():
        assert gray_map(x) == pair


def test_lee_weights():
    assert [lee_weight(x) for x in range(4)] == [0, 1, 2, 1]


def test_lee_weight_is_gray_hamming_distance():
    origin = gray_map(0)
    for x in range(4):
        dist = sum(a != b for a, b in zip(gray_map(x), origin))
        assert lee_weight(x) == dist


def test_gray_map_bijective():
    assert len({gray_map(x) for x in range(4)}) == 4


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(1, 1, ((4,),))
    with pytest.raises(ValueError):
        GeneratorSpec(2, 2, ((1, 2),))
    with pytest.raises(ValueError):
        GeneratorSpec(1, 2, ((1,),))


def test_codewords_enumeration_order():
    g = GeneratorSpec(1, 1, ((2,),))
    # G = (2, 1); codeword for t is (2t mod 4, t)
    assert codewords(g).tolist() == [[0, 0], [2, 1], [0, 2], [2, 3]]


def test_codewords_count_and_zero_row(rng):
    g = random_generator(rng, 2, 2)
    words = codewords(g)
    assert len(words) == 16
    assert words[0].tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("n, p", [(1, 1), (2, 3), (3, 6), (5, 2), (8, 4)])
def test_codewords_are_uint8_and_match_the_cell_codec(rng, n, p):
    g = random_generator(rng, n, p)
    t = cell_digits(np.arange(4 ** n), n)
    expect = np.concatenate([t @ np.array(g.V) % 4, t], axis=1)
    words = codewords(g)
    assert words.dtype == np.uint8
    assert (words == expect).all()


def test_build_design_shape_and_values():
    g = GeneratorSpec(2, 1, ((1,), (3,)))
    d = build_design(g)
    assert (d.runs, d.factors) == (16, 6)
    cells = np.asarray(d.cells)
    assert set(np.unique(cells)) == {-1, 1}


def test_design_rows_are_gray_images(rng):
    g = random_generator(rng, 2, 2)
    d = build_design(g)
    words = codewords(g)
    for t in range(d.runs):
        expect = [b for x in words[t] for b in gray_map(x)]
        assert list(np.asarray(d.cells)[t]) == expect


def test_column_balance(rng):
    for _ in range(5):
        g = random_generator(rng, 2, 2)
        if any(all(row[j] == 0 for row in g.V) for j in range(g.p)):
            continue
        cells = np.asarray(build_design(g).cells)
        assert (cells.sum(axis=0) == 0).all()


def test_all_zero_column_gives_constant_pair():
    d = build_design(GeneratorSpec(1, 1, ((0,),)))
    cells = np.asarray(d.cells)
    # added pair is gray_map(0) in every run; identity pair still balanced
    assert (cells[:, :2] == 1).all()
    assert (cells[:, 2:].sum(axis=0) == 0).all()


def test_column_pair_permutation_equivariance(rng):
    g = random_generator(rng, 2, 3)
    perm = (2, 0, 1)
    gp = GeneratorSpec(g.n, g.p, tuple(tuple(row[j] for j in perm)
                                       for row in g.V))
    a = np.asarray(build_design(g).cells)
    b = np.asarray(build_design(gp).cells)
    for new_j, old_j in enumerate(perm):
        assert (b[:, 2 * new_j:2 * new_j + 2]
                == a[:, 2 * old_j:2 * old_j + 2]).all()


def test_materialization_cap():
    g = GeneratorSpec(13, 1, tuple((1,) for _ in range(13)))
    with pytest.raises(BudgetExceeded):
        build_design(g)


def test_frequency_vector_reference_design(design256):
    g, data = design256
    f = frequency_vector(g)
    ones = [i for i, c in enumerate(f.counts) if c]
    assert ones == data["F_one_cells"]
    assert all(f.counts[i] == 1 for i in ones)
    assert f.n == 4


def test_frequency_vector_all_zero_rows():
    g = GeneratorSpec(3, 2, ((0, 0),) * 3)
    f = frequency_vector(g)
    assert f.counts[0] == 3 and sum(f.counts) == 3


def test_frequency_vector_base4_index():
    g = GeneratorSpec(2, 2, ((1, 2), (1, 2)))
    assert frequency_vector(g).counts[6] == 2


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_cell_codec_round_trip(p):
    index = np.arange(4 ** p)
    digits = cell_digits(index, p)
    assert digits.tolist() == [list(c) for c in cells(p)]
    assert (cell_index(digits) == index).all()
    # leading axes are a batch, in both directions
    batch = index[::-1].reshape(4, -1)
    assert (cell_index(cell_digits(batch, p)) == batch).all()


def test_frequency_row_permutation_invariance(rng):
    g = random_generator(rng, 4, 2)
    flipped = GeneratorSpec(g.n, g.p, tuple(reversed(g.V)))
    assert frequency_vector(g).counts == frequency_vector(flipped).counts


def test_generator_for_frequency_round_trip(rng):
    g = random_generator(rng, 4, 3)
    f = frequency_vector(g)
    assert frequency_vector(generator_for_frequency(f)).counts == f.counts


def test_frequency_vector_validation():
    with pytest.raises(ValueError):
        FrequencyVector(1, (0, 0, 0))
    with pytest.raises(ValueError):
        FrequencyVector(1, (0, -1, 0, 1))


def test_generator_json_round_trip(tmp_path, rng):
    g = random_generator(rng, 3, 2)
    path = tmp_path / "g.json"
    save_generator(g, path)
    assert load_generator(path) == g
    raw = json.loads(path.read_text())
    assert set(raw) == {"n", "p", "V"}


def test_design_text_round_trip(rng):
    d = build_design(random_generator(rng, 2, 1))
    again = design_from_text(design_to_text(d))
    assert again.runs == d.runs and again.factors == d.factors
    assert np.array_equal(np.asarray(again.cells), np.asarray(d.cells))


def test_design_text_rejects_bad_header():
    with pytest.raises(ValueError):
        design_from_text("rows=4 cols=2\n+1,+1\n")


@pytest.mark.parametrize("n, p, V", [
    (1, 1, ((1.0,),)), (1, 1, ((True,),)), (1.0, 1, ((1,),)),
    (1, True, ((1,),)), (1, 1, (("1",),))])
def test_generator_rejects_non_int_entries(n, p, V):
    with pytest.raises(ValueError, match="must be integers"):
        GeneratorSpec(n, p, V)


@pytest.mark.parametrize("p, counts", [
    (1, (0, 1.0, 0, 0)), (1, (0, True, 0, 0)), (1.0, (0, 1, 0, 0))])
def test_frequency_vector_rejects_non_int_entries(p, counts):
    with pytest.raises(ValueError, match="must be integers"):
        FrequencyVector(p, counts)
