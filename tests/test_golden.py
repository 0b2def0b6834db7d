"""Frozen-data integrity and the full regeneration diff."""

import pytest

from qcode.cli import main
from qcode import (GoldenDataError, load_examples, load_matrices,
                   verify_all, verify_examples, verify_matrices)
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
