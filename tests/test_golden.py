"""Frozen-data integrity and the full regeneration diff."""

from itertools import combinations

import pytest

from qcode.cli import main
from qcode import (GeneratorSpec, GoldenDataError, aliasing_index,
                   build_design, load_examples, load_matrices, verify_all,
                   verify_examples, verify_matrices)
import qcode.golden as golden
from conftest import tamper_design_256x14


def test_checksums_pass():
    for p in (1, 2, 3):
        assert load_matrices(p)["p"] == p
    assert set(load_examples()) >= {"oplus_p2", "design_256x14",
                                    "periodic_extension"}


def test_load_matrices_range():
    with pytest.raises(ValueError):
        load_matrices(4)


def test_matrix_shapes():
    m = load_matrices(3)
    assert len(m["C"]) == 35 and len(m["C"][0]) == 64
    assert len(m["B"]) == 7
    assert m["deltas"] == [0, 0, 0, 1, 1, 1, 0]


def test_tampered_bytes_detected(monkeypatch):
    real_read = golden._read

    def tampered(name):
        raw = real_read(name)
        if name.endswith(".json"):
            raw = raw.replace(b" ", b"", 1)
        return raw

    monkeypatch.setattr(golden, "_read", tampered)
    with pytest.raises(GoldenDataError, match="checksum"):
        load_matrices(1)


def test_missing_checksum_entry_detected(monkeypatch):
    monkeypatch.setattr(golden, "_checksums", dict)
    with pytest.raises(GoldenDataError, match="no checksum"):
        load_examples()


def test_missing_file_detected():
    with pytest.raises(GoldenDataError, match="missing"):
        golden._read("no_such_file.json")


def test_verify_matrices_clean():
    for p in (1, 2, 3):
        assert verify_matrices(p) == []


def test_verify_examples_reports_only_pinned_note():
    assert verify_examples() == []


def test_verify_all_clean():
    assert verify_all() == []


@pytest.mark.parametrize("field", ["K", "lengths"])
@pytest.mark.parametrize("cell", [0, 23, 34])
def test_verify_examples_reports_tampered_cell(monkeypatch, field, cell):
    want = load_examples()["design_256x14"][field][cell]
    tamper_design_256x14(monkeypatch, field, cell)
    diffs = verify_examples()
    assert len(diffs) == 1
    assert diffs[0].startswith(f"design_256x14: {field} cell {cell} ")
    assert diffs[0].endswith(f"expected {want + 2}, got {want}")


@pytest.mark.parametrize("field", ["K", "lengths"])
def test_verify_examples_reports_missing_cell(monkeypatch, field):
    real = load_examples()
    real["design_256x14"][field].pop()
    monkeypatch.setattr(golden, "load_examples", lambda: real)
    assert verify_examples() == [
        f"design_256x14: {field} expected 34 cells, got 35"]


#: one frozen output per parametrization: (section, field, cell or None,
#: tampered value, the label its diff starts with)
TAMPERED_OUTPUTS = [
    ("oplus_p2", "k_10", 3, 2, "oplus_p2: k_10 cell 3: "),
    ("oplus_p2", "k_02", 0, 1, "oplus_p2: k_02 cell 0: "),
    ("oplus_p2", "sum", 15, 0, "oplus_p2: sum cell 15: "),
    ("all_odd_p2_partition", "zero_cells", 0, "02",
     "all_odd_p2_partition: zero_cells "),
    ("all_odd_p2_partition", "one_cells", 7, "33",
     "all_odd_p2_partition: one_cells "),
    ("all_odd_p2_partition", "two_cells", 3, "00",
     "all_odd_p2_partition: two_cells "),
    ("design_256x14", "F_one_cells", 2, 30, "design_256x14: F_one_cells "
     "cell 2: "),
    ("design_256x14", "A", 6, 2, "design_256x14: A cell 6: "),
    ("design_256x14", "K", 5, 7, "design_256x14: K cell 5 "),
    ("design_256x14", "lengths", 5, 9, "design_256x14: lengths cell 5 "),
    ("design_256x14", "spectrum", 1, [8, "1", 8],
     "design_256x14: spectrum cell 1 cell 2: "),
    ("design_256x14", "gwlp_from_1", 5, 41, "design_256x14: gwlp_from_1 "
     "A_6: "),
    ("design_256x14", "resolution", None, "6", "design_256x14: resolution "),
    ("periodic_extension", "Ft", 22, 1, "periodic_extension: Ft cell 22: "),
    ("periodic_extension", "r", None, 71, "periodic_extension: r "),
    ("periodic_extension", "rho", None, "1/65536",
     "periodic_extension: rho "),
    ("periodic_extension", "rendered_resolution", None, "70.9999925",
     "periodic_extension: rendered_resolution "),
] + [("wordtype_counts", p, None, 0, f"wordtype_counts: p={p} ")
      for p in "1234"]


#: A_1 and A_2, the cells of gwlp_from_1 that the oracle's j of the
#: single columns and pairs checks, apart from the GWLP from A_3 on
TAMPERED_SHORT_GWLP = [
    ("design_256x14", "gwlp_from_1", cell, 1,
     f"design_256x14: gwlp_from_1 A_{cell + 1}: ") for cell in (0, 1)]


@pytest.mark.parametrize("section, field, cell, value, label",
                         TAMPERED_OUTPUTS + TAMPERED_SHORT_GWLP,
                         ids=[f"{s}.{f}" for s, f, *_ in TAMPERED_OUTPUTS]
                         + [f"design_256x14.gwlp_from_1.A_{c + 1}"
                            for _, _, c, *_ in TAMPERED_SHORT_GWLP])
def test_verify_examples_reports_each_tampered_output(
        monkeypatch, section, field, cell, value, label):
    """One frozen output value changed gives exactly one diff, and it
    names that field."""
    real = load_examples()
    if cell is None:
        real[section][field] = value
    else:
        assert real[section][field][cell] != value
        real[section][field][cell] = value
    monkeypatch.setattr(golden, "load_examples", lambda: real)
    diffs = verify_examples()
    assert len(diffs) == 1, diffs
    assert diffs[0].startswith(label)


@pytest.mark.parametrize("V", [((2, 3, 3), (3, 2, 2)), ((1, 0), (3, 0))])
def test_short_gwlp_sums_the_single_columns_and_pairs(V):
    """A_1 and A_2 against one J-characteristic per subset: equal Z4
    columns alias binary pairs (A_2 > 0), and a zero column of V gives
    constant binary columns (A_1 > 0)."""
    g = GeneratorSpec(len(V), len(V[0]), V)
    d = build_design(g)
    want = [sum(aliasing_index(d, s) ** 2 for s in combinations(
        range(1, d.factors + 1), k)) for k in (1, 2)]
    assert golden._short_gwlp(g) == want
    assert any(want)


def test_verify_examples_diffs_the_oracles_short_gwlp(monkeypatch):
    monkeypatch.setattr(golden, "_short_gwlp", lambda g: [0, 3])
    assert verify_examples() == [
        "design_256x14: gwlp_from_1 A_2: expected 0, got 3"]


def test_every_frozen_output_is_tampered_once():
    """The cases above cover every field of examples.json but the inputs
    V and t."""
    fields = {(s, f) for s, section in load_examples().items()
              for f in section}
    inputs = {("design_256x14", "V"), ("periodic_extension", "t")}
    assert fields - inputs == {(s, f) for s, f, *_ in TAMPERED_OUTPUTS}


def test_verify_does_not_write_golden_files():
    paths = sorted((golden.files("qcode") / "golden").iterdir(),
                   key=lambda f: f.name)
    before = [(f.name, f.read_bytes()) for f in paths]
    verify_all()
    after = [(f.name, f.read_bytes()) for f in paths]
    assert before == after


def _cut_matrices(monkeypatch, cut):
    real = load_matrices

    def tampered(p):
        m = real(p)
        if p == 3:
            cut(m)
        return m

    monkeypatch.setattr(golden, "load_matrices", tampered)


def test_verify_matrices_reports_missing_row(monkeypatch, capsys):
    _cut_matrices(monkeypatch, lambda m: m["C"].pop())
    assert verify_matrices(3) == ["p=3 C expected 34 rows, got 35"]
    assert main(["verify", "--p", "3"]) == 1
    assert "p=3 C expected 34 rows, got 35" in capsys.readouterr().out


def test_verify_matrices_reports_missing_cell(monkeypatch, capsys):
    _cut_matrices(monkeypatch, lambda m: m["B"][6].pop())
    assert verify_matrices(3) == ["p=3 B row 111 expected 63 cells, got 64"]
    assert main(["verify", "--p", "3"]) == 1
    assert "p=3 B row 111 expected 63 cells" in capsys.readouterr().out
