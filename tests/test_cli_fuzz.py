"""Fuzz of the three CLI file formats: generator JSON, design text and
frequency-vector JSON, each near-valid or mangled, fed to `analyze`,
`construct` and `extend`.

Whatever the file holds, the CLI answers with success, an input error
or a resource-guard refusal (exit 0, 2 or 3), and a failure is at most
one stderr line with no traceback.  Inputs stay tiny (n <= 3, at most
12 factors), so every example runs in milliseconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcode.cli import main

#: ints past int64 too, where the closed form must refuse, not overflow
BIG = st.integers(2 ** 62, 10 ** 20)

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | BIG | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "p", "V"]) | st.text(max_size=2),
                      inner, max_size=4),
    max_leaves=10)


@st.composite
def generator_json(draw):
    n = draw(st.integers(1, 3))
    p = draw(st.integers(1, 6 - n))
    payload = {"n": n, "p": p,
               "V": draw(st.lists(st.lists(st.integers(0, 3), min_size=p,
                                           max_size=p),
                                  min_size=n, max_size=n))}
    how = draw(st.sampled_from(["none", "field", "entry", "drop", "row"]))
    if how == "field":
        payload[draw(st.sampled_from(["n", "p", "V"]))] = draw(JUNK)
    elif how == "entry":
        payload["V"][draw(st.integers(0, n - 1))][
            draw(st.integers(0, p - 1))] = draw(JUNK)
    elif how == "drop":
        del payload[draw(st.sampled_from(["n", "p", "V"]))]
    elif how == "row":
        payload["V"].append(draw(JUNK))
    return json.dumps(payload)


CELL_JUNK = st.sampled_from(["0", "2", "+2", "x", "", " ", "1e3", "99999",
                             "-1 ", "+1,"])


@st.composite
def design_text(draw):
    runs, factors = draw(st.integers(0, 8)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.sampled_from(["+1", "-1"]),
                                  min_size=factors, max_size=factors),
                         min_size=runs, max_size=runs))
    header = f"runs={runs} factors={factors}"
    how = draw(st.sampled_from(["none", "header", "cell", "drop", "row"]))
    if how == "header":
        header = draw(st.sampled_from(
            ["runs=x factors=2", "runs=4", "runs=4 factors=", "", "runs="]))
    elif how == "cell" and runs and factors:
        rows[draw(st.integers(0, runs - 1))][
            draw(st.integers(0, factors - 1))] = draw(CELL_JUNK)
    elif how == "drop" and runs:
        rows.pop()
    elif how == "row":
        rows.append(draw(st.lists(CELL_JUNK, max_size=3)))
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


@st.composite
def frequency_json(draw):
    p = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(0, 3), min_size=4 ** p,
                           max_size=4 ** p))
    how = draw(st.sampled_from(["none", "cell", "drop", "junk"]))
    if how == "cell":
        counts[draw(st.integers(0, 4 ** p - 1))] = draw(JUNK)
    elif how == "drop":
        counts.pop()
    elif how == "junk":
        return json.dumps(draw(JUNK))
    return json.dumps(counts)


COMMANDS = st.one_of(
    st.tuples(st.just("analyze"), st.just("--method"),
              st.sampled_from(["theory", "bruteforce", "both"]),
              st.just("--format"), st.sampled_from(["json", "text"]))
    .flatmap(lambda argv: st.one_of(
        st.just(argv),
        st.integers(-1, 14).map(lambda m: argv + ("--max-length", m)))),
    st.just(("construct",)),
    (st.integers(-1, 3) | BIG).map(lambda t: ("extend", "--t", t)))


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(generator_json(), design_text(), frequency_json()),
       command=COMMANDS)
def test_cli_file_formats_fail_cleanly(folder, text, command):
    path = folder / "input"
    path.write_text(text)
    argv = [command[0], "--input", str(path), *map(str, command[1:])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().count("\n") <= 1, err.getvalue()
