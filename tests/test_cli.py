"""Command-line surface: formats, round trips, exit codes."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qcode
import qcode.cli as cli
from conftest import miscount_scan, tamper_design_256x14
from qcode.cli import _join_rows, _write_json, main
from qcode.equations import build_system
from qcode.golden import wordtype_str


@pytest.fixture
def gen_file(tmp_path, design256):
    g, _ = design256
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"n": g.n, "p": g.p,
                                "V": [list(r) for r in g.V]}))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_writes_design(tmp_path, gen_file, capsys):
    out_path = tmp_path / "design.txt"
    code, out, _ = run(capsys, "construct", "--input", gen_file,
                       "--output", out_path)
    assert code == 0
    assert out.strip() == "runs=256 factors=14"
    lines = out_path.read_text().splitlines()
    assert lines[0] == "runs=256 factors=14"
    assert len(lines) == 257


def test_construct_stdout(gen_file, capsys):
    code, out, _ = run(capsys, "construct", "--input", gen_file)
    assert code == 0
    assert out.startswith("runs=256 factors=14\n")


def test_analyze_generator_json(gen_file, capsys, design256):
    code, out, _ = run(capsys, "analyze", "--input", gen_file,
                       "--method", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["runs"] == 256
    assert payload["resolution"] == "13/2"
    assert payload["method"] == "both"
    assert payload["spectrum"] == [
        {"length": l, "rho": r, "count": c}
        for l, r, c in design256[1]["spectrum"]]
    assert payload["gwlp"][3] == "42"


def test_analyze_round_trip_and_determinism(tmp_path, gen_file, capsys):
    design = tmp_path / "d.txt"
    assert run(capsys, "construct", "--input", gen_file,
               "--output", design)[0] == 0
    outs = []
    for source in (design, gen_file, gen_file):
        code, out, _ = run(capsys, "analyze", "--input", source,
                           "--method", "bruteforce")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_analyze_text_format(gen_file, capsys):
    code, out, _ = run(capsys, "analyze", "--input", gen_file,
                       "--format", "text")
    assert code == 0
    assert "resolution = 13/2 (6.5000000)" in out


def test_analyze_design_text_rejects_theory(tmp_path, gen_file, capsys):
    design = tmp_path / "d.txt"
    run(capsys, "construct", "--input", gen_file, "--output", design)
    code, _, err = run(capsys, "analyze", "--input", design,
                       "--method", "theory")
    assert code == 2
    assert "bruteforce" in err


def test_matrices_pinned_p1(capsys):
    code, out, _ = run(capsys, "matrices", "--p", 1)
    assert code == 0
    payload = json.loads(out)
    assert payload["C"] == [[0, 1, 2, 1], [0, 2, 0, 2]]
    assert payload["B"] == [[0, 1, 0, 1]]
    assert payload["K_order"] == ["1", "2"]
    assert payload["deltas"] == [0]


#: quotes, backslashes, control characters, non-ASCII (a lone surrogate
#: and an astral emoji too), and anything else
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u00e9\u2028'
                               '\ud83d\U0001f600') | st.characters(),
               max_size=6)
JSON_LEAF = (st.integers() | st.integers(2 ** 63 - 2, 2 ** 70)
             | st.integers(-2 ** 70, -2 ** 63 + 1) | st.booleans() | st.none()
             | TEXT | st.lists(st.integers() | st.booleans(), max_size=5))
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUE)
def test_json_writer_matches_json_dumps(value):
    out = io.StringIO()
    _write_json(out, value)
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"


def int_arrays(shape):
    """Integer arrays of every width and sign: values over the whole
    range, extremes included, mixed with short ones of either sign."""
    def of(dtype):
        short = st.integers(max(np.iinfo(dtype).min, -12), 12)
        return hnp.arrays(dtype, shape,
                          elements=hnp.from_dtype(dtype) | short)
    return (hnp.integer_dtypes() | hnp.unsigned_integer_dtypes()).flatmap(of)


INT_ARRAY = int_arrays(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                        max_side=6))


@settings(max_examples=300, deadline=None)
@given(INT_ARRAY | st.dictionaries(TEXT, INT_ARRAY, max_size=3))
def test_json_writer_renders_int_arrays_as_lists(value):
    out = io.StringIO()
    _write_json(out, value)
    plain = (value.tolist() if isinstance(value, np.ndarray)
             else {key: array.tolist() for key, array in value.items()})
    assert out.getvalue() == json.dumps(plain, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(int_arrays(st.tuples(st.integers(0, 5), st.integers(0, 8))),
       st.sampled_from([" ", ",\n    "]))
@example(np.array([[-2**63, 2**63 - 1, 0]]), " ")
@example(np.array([[2**64 - 1, 0], [1, 10]], np.uint64), " ")
@example(np.array([[-128, 127], [-1, 0]], np.int8), ",\n    ")
@example(np.zeros((0, 4), np.int16), " ")
@example(np.zeros((3, 0), np.uint32), " ")
@example(np.array([[0, 9, 2], [1, 0, 0]], np.uint8), ",\n    ")
@example(np.array([[9, 10]], np.uint8), " ")
def test_int_row_text_matches_str_join(a, sep):
    assert list(_join_rows(a, sep)) == [sep.join(map(str, row))
                                        for row in a.tolist()]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_matrices_json_matches_json_dumps(capsys, tmp_path, p):
    sysm = build_system(p)
    payload = {
        "p": p,
        "K_order": [wordtype_str(w) for w in sysm.k_order],
        "constants": sysm.constants,
        "C": sysm.c_matrix(),
        "A_order": [wordtype_str(pi) for pi in sysm.a_order],
        "deltas": sysm.deltas,
        "B": sysm.b_matrix(),
    }
    code, out, _ = run(capsys, "matrices", "--p", p)
    assert code == 0
    assert out == json.dumps(payload, indent=2) + "\n"
    # the --output file is written chunk by chunk, to the same bytes
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, "matrices", "--p", p, "--output", path)
    assert code == 0
    assert path.read_text() == out


def test_verify_clean(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "note:" not in out
    assert "match" in out


@pytest.mark.parametrize("field", ["K", "lengths"])
def test_verify_tampered_cell_exits_1(monkeypatch, capsys, field):
    tamper_design_256x14(monkeypatch, field, 23)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert f"design_256x14: {field} cell 23 (112)" in out
    assert out.endswith("verify: 1 mismatch(es)\n")


def test_python_m_qcode_runs_the_cli():
    src = str(Path(qcode.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-m", "qcode", "verify"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("verify: matrices p=1,2,3 and all frozen "
                           "examples match\n")


def test_verify_single_p(capsys):
    code, out, _ = run(capsys, "verify", "--p", 2)
    assert code == 0
    assert "p=2" in out


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--n", 1, "--p", 1,
                       "--top", 2)
    assert code == 0
    payload = json.loads(out)
    assert [row["F"] for row in payload] == [[0, 0, 0, 1], [0, 1, 0, 0]]
    assert payload[0]["resolution"] == "4"
    assert payload[0]["witness_V"] == [[3]]


def test_extend_fixture(tmp_path, gen_file, capsys, examples):
    f0 = tmp_path / "f0.json"
    ft = tmp_path / "ft.json"
    counts = [0] * 64
    for c in examples["design_256x14"]["F_one_cells"]:
        counts[c] = 1
    f0.write_text(json.dumps(counts))
    code, out, _ = run(capsys, "extend", "--input", f0, "--t", 1,
                       "--output", ft)
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted_r"] == 70
    assert payload["predicted_rho"] == "1/131072"
    assert payload["rendered_resolution"] == "70.9999924"
    assert json.loads(ft.read_text()) \
        == examples["periodic_extension"]["Ft"]


def test_failed_extend_writes_no_file(tmp_path, capsys, examples):
    """At t = 892 the predicted rho's denominator, 2^14273, passes the
    interpreter's 4,300-digit limit for printing an int: the payload is
    rendered first, so the command fails before --output is written."""
    f0, ft = tmp_path / "f0.json", tmp_path / "ft.json"
    counts = [0] * 64
    for c in examples["design_256x14"]["F_one_cells"]:
        counts[c] = 1
    f0.write_text(json.dumps(counts))
    for fmt in ("json", "text"):
        code, out, err = run(capsys, "extend", "--input", f0, "--t", 892,
                             "--output", ft, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert "t = 892" in err and "4,300 digits" in err
        assert not ft.exists()


@pytest.mark.parametrize("counts, t", [
    ([2 ** 62] * 63, 1),        # n is 63 * 2^62, past the int64 bound
    ([10 ** 20] * 64, 1),       # each count past int64
    (None, 10 ** 20),           # the extension past int64
])
def test_exit_2_past_the_int64_bound(tmp_path, capsys, examples, counts, t):
    """F whose n the closed form's int64 arithmetic cannot hold exactly is
    refused in one line, not wrapped (a wrong K, or a misleading "no
    frequency mass") and not raised as an internal OverflowError."""
    if counts is None:
        counts = [0] * 64
        for c in examples["design_256x14"]["F_one_cells"]:
            counts[c] = 1
    else:
        counts = [0] + counts[-63:]
    f0 = tmp_path / "f0.json"
    f0.write_text(json.dumps(counts))
    for fmt in ("json", "text"):
        code, out, err = run(capsys, "extend", "--input", f0, "--t", t,
                             "--format", fmt)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "int64" in err


def test_exit_2_on_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "--input", "/no/such/file")
    assert code == 2 and "analyze:" in err


def test_exit_2_on_bad_generator(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "p": 1, "V": [[7]]}')
    assert run(capsys, "analyze", "--input", bad)[0] == 2


def test_exit_2_on_bad_frequency(tmp_path, capsys):
    f = tmp_path / "f.json"
    for counts in ("[1, 2, 3]", "[5]", "[]"):  # one cell is 4^0, but p >= 1
        f.write_text(counts)
        code, _, err = run(capsys, "extend", "--input", f, "--t", 1)
        assert code == 2 and "needs 4^p cells for some p >= 1" in err


def test_exit_2_on_out_of_range_design_cell(tmp_path, capsys):
    # 99999 does not fit the int8 cells; it must be refused as input
    big = tmp_path / "big.txt"
    big.write_text("runs=1 factors=3\n1,99999,-1\n")
    code, _, err = run(capsys, "analyze", "--input", big,
                       "--method", "bruteforce")
    assert code == 2
    assert err.count("\n") == 1 and "+1 or -1" in err


def test_search_expands_orbits_of_64_rows(capsys):
    """An orbit is expanded into its members, not into the 2^n sign
    patterns of its rows: the best design puts all 64 rows on cell 2,
    and the top 50 also take orbits with 42 or 43 rows on {1, 3}."""
    code, out, _ = run(capsys, "search", "--n", 64, "--p", 1)
    assert code == 0
    [best] = json.loads(out)
    assert (best["F"], best["resolution"]) == ([0, 0, 64, 0], "129")
    code, out, _ = run(capsys, "search", "--n", 64, "--p", 1, "--top", 50)
    assert code == 0
    ranked = json.loads(out)
    assert len(ranked) == 50 and ranked[0] == best
    assert len({tuple(row["F"]) for row in ranked}) == 50


def test_exit_3_on_search_budget(capsys):
    code, _, err = run(capsys, "search", "--n", 9, "--p", 3)
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("subcommand", [("analyze",), ("extend", "--t", 1)])
def test_exit_2_on_deeply_nested_json(tmp_path, capsys, subcommand):
    # the JSON decoder recurses once per level and gives up
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, subcommand[0], "--input", deep,
                       *subcommand[1:])
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("value", [0, 2, -1, 15])
@pytest.mark.parametrize("kind", ["generator", "design"])
def test_exit_2_on_out_of_range_max_length(tmp_path, gen_file, capsys,
                                           kind, value):
    source = gen_file
    if kind == "design":
        source = tmp_path / "d.txt"
        run(capsys, "construct", "--input", gen_file, "--output", source)
    code, out, err = run(capsys, "analyze", "--input", source,
                         "--method", "bruteforce", "--max-length", value)
    assert code == 2 and out == ""
    assert err == "analyze: max_length must be in 3..14\n"


def test_search_past_the_transform_limit_builds_no_design(monkeypatch,
                                                         capsys):
    # 26 factors, past the WHT's 24: the winners' reports come from the
    # dual closed form
    import qcode.theory as theory

    def built(g):
        raise AssertionError("search built a design")

    monkeypatch.setattr(theory, "build_design", built)
    code, out, err = run(capsys, "search", "--n", 12, "--p", 1)
    assert (code, err) == (0, "")
    assert json.loads(out)[0]["resolution"] == "25"


@pytest.mark.parametrize("p, V", [
    (4, [[1, 0, 2, 3], [0, 1, 1, 2], [3, 3, 0, 1]]),
    (3, [[1, 1, 1], [2, 0, 0], [0, 2, 2]]),  # no mass on 110, 101, 011
])
def test_analyze_theory_prints_the_bruteforce_report(tmp_path, capsys, p, V):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"n": len(V), "p": p, "V": V}))
    reports = []
    for method in ("theory", "bruteforce"):
        code, out, err = run(capsys, "analyze", "--input", gen,
                             "--method", method)
        assert (code, err) == (0, "")
        reports.append(out.replace(f'"method": "{method}"', '"method": ""'))
    assert reports[0] == reports[1]


def test_exit_2_on_theory_past_max_p(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"n": 1, "p": 7, "V": [[1] * 7]}))
    code, out, err = run(capsys, "analyze", "--input", gen,
                         "--method", "theory")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "bruteforce" in err


def test_exit_3_on_wide_generator(tmp_path, capsys):
    # p = 40: no 4^40-cell frequency vector is built, and the 82-factor
    # subset scan is refused by its budget
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n": 1, "p": 40, "V": [[1] * 40]}))
    code, _, err = run(capsys, "analyze", "--input", wide,
                       "--method", "bruteforce")
    assert code == 3
    assert err.count("\n") == 1 and "budget" in err


def test_exit_3_on_oversized_construct(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 13, "p": 1,
                               "V": [[1]] * 13}))
    assert run(capsys, "construct", "--input", big)[0] == 3


@pytest.mark.parametrize("entry", ["1.0", "true"])
def test_exit_2_on_non_int_generator_entry(tmp_path, capsys, entry):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "p": 1, "V": [[%s]]}' % entry)
    code, _, err = run(capsys, "analyze", "--input", bad)
    assert code == 2
    assert err.count("\n") == 1 and "must be integers" in err


def test_exit_2_on_non_int_frequency(tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text("[0, 1.5, 0, 0]")
    code, _, err = run(capsys, "extend", "--input", f, "--t", 1)
    assert code == 2
    assert err.count("\n") == 1 and "must be integers" in err


class ReadRecorder(argparse.Namespace):
    """A namespace that notes the name of each attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "_read", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


#: one valid argv per subcommand (a new one fails until it is added
#: here), its input files named by placeholder
SUBCOMMAND_ARGVS = {
    "construct": ("--input", "{gen}", "--output", "{out}"),
    "analyze": ("--input", "{gen}"),
    "matrices": ("--p", "1"),
    "verify": (),
    "search": ("--n", "1", "--p", "1"),
    "extend": ("--input", "{freq}", "--t", "1"),
}


@pytest.mark.parametrize("name", sorted(name[4:] for name in vars(cli)
                                     if name.startswith("cmd_")))
def test_every_option_is_read(tmp_path, gen_file, examples, capsys, name):
    freq = tmp_path / "f0.json"
    counts = [0] * 64
    for c in examples["design_256x14"]["F_one_cells"]:
        counts[c] = 1
    freq.write_text(json.dumps(counts))
    paths = {"gen": gen_file, "freq": freq, "out": tmp_path / "out"}
    argv = [name, *(x.format(**paths) for x in SUBCOMMAND_ARGVS[name])]
    parsed = cli.build_parser().parse_args(argv)
    args = ReadRecorder(**vars(parsed))
    assert getattr(cli, f"cmd_{name}")(args) == 0
    assert set(vars(parsed)) - {"subcommand"} <= args._read


@pytest.mark.parametrize("argv", [
    ("construct", "--input", "gen.json", "--format", "json"),
    ("construct", "--input", "gen.json", "--force-budget"),
    ("matrices", "--p", "1", "--force-budget"),
    ("extend", "--input", "f0.json", "--t", "1", "--force-budget")])
def test_exit_2_on_a_flag_no_command_reads(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--p", 0), ("--p", 4),
                                         ("--n", -1), ("--n", 0)])
def test_exit_2_on_bad_search_argument(capsys, flag, value):
    argv = {"--n": 2, "--p": 2, flag: value}
    code, _, err = run(capsys, "search", *(x for kv in argv.items()
                                           for x in kv))
    assert code == 2
    assert f"{flag[2:]} = {value}" in err


def test_bruteforce_wide_generator_needs_no_force(tmp_path, capsys):
    # 20 factors: the WHT route runs in well under a second, and the
    # subset-scan budget does not apply to it
    gen = tmp_path / "gen.json"
    V = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [1, 2, 3], [2, 1, 1], [3, 3, 1],
         [1, 3, 2]]
    gen.write_text(json.dumps({"n": 7, "p": 3, "V": V}))
    code, out, _ = run(capsys, "analyze", "--input", gen,
                       "--method", "bruteforce")
    assert code == 0
    assert json.loads(out)["factors"] == 20


def test_exit_1_on_spectrum_mismatch(monkeypatch, gen_file, capsys):
    miscount_scan(monkeypatch)
    code, out, err = run(capsys, "analyze", "--input", gen_file,
                         "--method", "both")
    assert code == 1
    assert out == ""
    assert err == ("analyze: closed form and subset scan disagree at "
                   "length 6, aliasing index 1/2: 168 vs 169 words\n")


def test_exit_4_on_internal_error(monkeypatch, capsys):
    # a fault in qcode itself is neither a mismatch nor an input error
    def broken(args):
        raise RuntimeError("scorer lost its place")

    monkeypatch.setattr(cli, "cmd_search", broken)
    code, out, err = run(capsys, "search", "--n", 1, "--p", 1)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == ("search: internal error: RuntimeError: scorer lost its "
                   "place\n")
    assert "Traceback" not in err
