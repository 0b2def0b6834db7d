"""Construction layer: Gray map, codeword enumeration, design assembly."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qcode.z4 as z4
from conftest import random_generator
from qcode import (BudgetExceeded, FrequencyVector, GeneratorSpec,
                   build_design, codewords, design_from_text,
                   design_to_text, frequency_vector,
                   generator_for_frequency, gray_map, lee_weight,
                   load_generator, save_generator)
from qcode.equations import cells
from qcode.z4 import BinaryDesign, cell_digits, cell_index

GRAY = {0: (1, 1), 1: (1, -1), 2: (-1, -1), 3: (-1, 1)}


def test_gray_map_table():
    for x, pair in GRAY.items():
        assert gray_map(x) == pair


def test_lee_weights():
    assert [lee_weight(x) for x in range(4)] == [0, 1, 2, 1]


@pytest.mark.parametrize("fn", [lee_weight, gray_map])
@pytest.mark.parametrize("x", [-1, 4])
def test_z4_maps_refuse_other_symbols(fn, x):
    with pytest.raises(ValueError, match=f"^not a Z4 element: {x}$"):
        fn(x)


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
    for n, p, V in ((0, 1, ()), (1, 0, ((),))):
        with pytest.raises(ValueError, match=f"^n and p must be positive, "
                           f"got n={n}, p={p}$"):
            GeneratorSpec(n, p, V)


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
    with pytest.raises(ValueError, match="p must be positive, got p=0"):
        FrequencyVector(0, (5,))


def test_cell_codec_at_zero_width():
    """p = 0 digits are none at all, and index cell 0."""
    assert cell_digits(np.arange(3), 0).shape == (3, 0)
    assert cell_index(np.zeros((3, 0), np.int64)).tolist() == [0, 0, 0]


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


def cell_by_cell_text(d: BinaryDesign) -> str:
    """Reference writer: the design text joined one cell at a time."""
    lines = [f"runs={d.runs} factors={d.factors}"]
    for row in d.cells:
        lines.append(",".join("+1" if v > 0 else "-1" for v in row))
    return "\n".join(lines) + "\n"


def cell_by_cell_parse(text: str) -> tuple[int, int, np.ndarray]:
    """Reference reader: `int()` on every cell, into an object array."""
    lines = text.strip().split("\n")
    header = lines[0].split()
    try:
        runs = int(header[0].split("=")[1])
        factors = int(header[1].split("=")[1])
    except (IndexError, ValueError):
        raise ValueError(f"bad design header: {lines[0]!r}")
    cells = np.array([[int(v) for v in line.split(",")] for line in lines[1:]],
                     dtype=object)
    if cells.shape != (runs, factors):
        raise ValueError("design body does not match header")
    if not np.all(np.abs(cells) == 1):
        raise ValueError("design entries must be +1 or -1")
    return runs, factors, cells.astype(np.int8)


PM_ONE = st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
    lambda shape: hnp.arrays(np.int8, shape,
                             elements=st.sampled_from([-1, 1])))


@settings(max_examples=200, deadline=None)
@given(PM_ONE)
def test_design_text_matches_cell_by_cell_writer(cells):
    d = BinaryDesign(*cells.shape, cells)
    blocks = []
    assert design_to_text(d, blocks.append) is None
    assert design_to_text(d) == "".join(blocks) == cell_by_cell_text(d)


@pytest.mark.parametrize("runs, factors", [(0, 3), (1, 1), (3, 2), (7, 5),
                                           (9, 1), (4, 0), (0, 0)])
def test_design_text_blocks_join_at_run_boundaries(monkeypatch, rng, runs,
                                                   factors):
    monkeypatch.setattr(z4, "_TEXT_BLOCK", 3)
    cells = rng.choice(np.array([-1, 1], np.int8), (runs, factors))
    d = BinaryDesign(runs, factors, cells)
    blocks = []
    design_to_text(d, blocks.append)
    assert "".join(blocks) == cell_by_cell_text(d)
    assert len(blocks) == 1 + (-(-runs // 3) if factors else 1)


#: cells that int() reads, some as +-1, and cells it refuses
GOOD_CELLS = ("+1", "-1", "1", " +1 ", "\t-1", "01", "-01", "+0_1", "\x0b1",
              "1\x0c", "0", "2", "-2", "127", "-128", "128", "-129", "99999",
              "-99999999999999999999999")
BAD_CELLS = ("", " ", "#1", "1.0", "1e0", "0x1", "1 1", "+ 1", "--1", "1_",
             "+1,", "\r", "\x1c-1", "1\x1f")
#: line ends, and what may follow the last line
ENDS = ("\n", "\r\n")
TAILS = ("", "\n", "\r\n", "\n\n", " \n", "\r\n\r\n", "\n \n")


@st.composite
def design_texts(draw):
    """Near-valid design text: +-1 cells, in their own spelling, in others
    that int() reads, or among junk; LF or CRLF line ends; and now and
    then a blank, white-space, ragged or commented line, a lone CR, or a
    header that is one run off."""
    runs, factors = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    spellings = draw(st.sampled_from([
        ("+1", "-1"), ("+1", "-1", " +1 ", "01", "-01", "+0_1", "\t-1"),
        GOOD_CELLS + BAD_CELLS]))
    rows = draw(st.lists(st.lists(st.sampled_from(spellings),
                                  min_size=factors, max_size=factors),
                         min_size=runs, max_size=runs))
    lines = [",".join(row) for row in rows]
    how = draw(st.sampled_from(["none", "blank", "space", "cr", "ragged",
                                "comment", "drop", "header"]))
    at = draw(st.integers(0, len(lines)))
    if how == "blank":
        lines.insert(at, "")
    elif how == "space":
        lines.insert(at, draw(st.sampled_from([" ", "\r", "\t", "\x1c"])))
    elif lines and how in ("cr", "ragged", "comment", "drop"):
        line = lines.pop(at - 1)
        lines[at - 1:at - 1] = {
            "cr": [draw(st.sampled_from([line.replace(",", "\r,", 1) + "\r",
                                         line + "\r+1"]))],
            "ragged": [draw(st.sampled_from([line + ",+1",
                                             line.rpartition(",")[0]]))],
            "comment": ["#" + line],
            "drop": []}[how]
    elif how == "header":
        runs += draw(st.sampled_from([-1, 1]))
    end = draw(st.sampled_from(ENDS))
    return (f"runs={runs} factors={factors}" + end + end.join(lines)
            + draw(st.sampled_from(TAILS)))


@settings(max_examples=500, deadline=None)
@given(design_texts())
@example("runs=2 factors=2\n+1,-1\n\n-1,+1\n")      # interior blank line
@example("runs=2 factors=1\n+1\n\r\n-1\n")         # a CRLF blank line
@example("runs=1 factors=2\n#+1,-1\n")              # a comment mark
@example("runs=2 factors=2\n+1,-1\n-1\n")            # a ragged row
@example("runs=1 factors=3\n1,99999,-1\n")          # out of range
@example("runs=1 factors=2\n")                       # an empty body
@example("runs=0 factors=2\n")                       # runs=0
@example("runs=0 factors=0\n\n")
@example("runs=1 factors=2\r\n +1 , 01 \r\n\r\n\n")  # accepted
@example("runs=1 factors=2\n+0_1,-1\n")             # only int() reads 0_1
@example("runs=1 factors=2\n+1,\x1c-1\n")           # only loadtxt reads \x1c
@example("runs=2 factors=1\n+1\r-1\n")               # a lone CR is no line end
@example("runs=2 factors=1\n\xa0+1\n-1\x85\n")        # white space past ASCII
def test_design_from_text_matches_cell_by_cell_reader(text):
    try:
        want = cell_by_cell_parse(text)
    except ValueError:
        want = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            d = design_from_text(text)
        except ValueError:
            got = None
        else:
            assert d.cells.dtype == np.int8
            got = d.runs, d.factors, d.cells
    assert caught == []
    if want is None or got is None:
        assert want is got is None, (want, got)
    else:
        assert got[:2] == want[:2]
        assert np.array_equal(got[2], want[2])


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
