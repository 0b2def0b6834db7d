"""Each benchmark check passes on real outputs and fails on a tampered one.

Run from the repository root: python -m pytest bench/tests
"""

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import checks  # noqa: E402
import qcode  # noqa: E402
import qcode.cli  # noqa: E402,F401
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def outputs(name, tmp_path=None, seed=3):
    wl = WORKLOADS[name]
    reqs = wl.requests(random.Random(seed), True)
    if tmp_path is not None:
        wl.prepare(reqs, tmp_path)
    results = [wl.plain(r, wl.run(qcode, r)) for r in reqs]
    assert wl.check(qcode, reqs, results, random.Random(seed + 1)) == []
    return wl, reqs, results


def fails(wl, reqs, results, seed=4):
    return wl.check(qcode, reqs, results, random.Random(seed)) != []


# ------------------------------------------------------------------ search

@pytest.fixture(scope="module")
def search_out():
    return outputs("search")


def test_search_rejects_bad_frequency_vector(search_out):
    wl, reqs, results = copy.deepcopy(search_out)
    f = list(results[0][0]["F"])
    f[0] = 1
    results[0][0]["F"] = tuple(f)
    assert fails(wl, reqs, results)


def test_search_rejects_bumped_resolution(search_out):
    wl, reqs, results = copy.deepcopy(search_out)
    results[0][0]["resolution"] += Fraction(1, 2)
    assert fails(wl, reqs, results)


def test_search_rejects_reordered_top_list(search_out):
    wl, reqs, results = copy.deepcopy(search_out)
    for res in results:
        res.reverse()
    assert fails(wl, reqs, results)


def test_search_rejects_top_beaten_by_sample(search_out):
    _, reqs, _ = search_out
    for req in reqs:
        ranked = WORKLOADS["search"].plain(req, qcode.search(
            req["n"], req["p"], req["criterion"], top=10 ** 6))
        worst, best = ranked[-1], ranked[0]["F"]
        problems = checks.check_search(qcode, dict(req, top=1), [worst],
                                       [best])
        assert any("beats the top result" in p for p in problems)


# ------------------------------------------------------ oracle, closed form

@pytest.fixture(scope="module")
def oracle_out():
    return outputs("oracle")


@pytest.fixture(scope="module")
def closed_form_out():
    return outputs("closed-form")


@pytest.mark.parametrize("which", ["oracle", "closed-form"])
def test_k_cell_is_checked(which, oracle_out, closed_form_out):
    wl, reqs, results = copy.deepcopy(
        oracle_out if which == "oracle" else closed_form_out)
    rep = results[0] if which == "oracle" else results[0]["report"]
    k = list(rep["k"])
    k[-1] += 1
    rep["k"] = tuple(k)
    assert fails(wl, reqs, results)


def test_mass_law_is_checked(closed_form_out):
    wl, reqs, results = copy.deepcopy(closed_form_out)
    rep = results[0]["report"]
    rep["gwlp"] = (rep["gwlp"][0] + 1,) + rep["gwlp"][1:]
    problems = wl.check(qcode, reqs, results, random.Random(4))
    assert any("not 63" in p for p in problems)


def test_sampled_words_catch_shifted_spectrum(oracle_out):
    wl, reqs, results = copy.deepcopy(oracle_out)
    for rep in results:
        rep["spectrum"] = tuple((l + 1, r, c) for l, r, c in rep["spectrum"])
    problems = wl.check(qcode, reqs, results, random.Random(4))
    assert any("has no cell" in p for p in problems)


def test_closed_form_is_compared_with_oracle(closed_form_out):
    wl, reqs, results = copy.deepcopy(closed_form_out)
    i = next(i for i, r in enumerate(reqs) if len(r["rows"]) <= 6)
    rep = results[i]["report"]
    (l, r, c), *rest = rep["spectrum"]
    rep["spectrum"] = ((l, r, c + 1), *rest)
    problems = checks.check_oracle_agreement(qcode, "t", reqs[i]["rows"], 3,
                                             rep)
    assert problems


def test_periodic_prediction_is_checked(closed_form_out):
    wl, reqs, results = copy.deepcopy(closed_form_out)
    fam = results[0]["family"]
    assert checks.check_periodic(qcode, "t", fam) == []
    fam["resolution"] += Fraction(1, 64)
    assert checks.check_periodic(qcode, "t", fam)


# --------------------------------------------------------------------- cli

@pytest.fixture
def cli_out(tmp_path):
    return outputs("cli", tmp_path)


def tamper_cli(cli_out, op, edit):
    wl, reqs, results = cli_out
    i = next(i for i, r in enumerate(reqs) if r["op"] == op)
    results[i] = edit(dict(results[i]))
    return fails(wl, reqs, results)


def test_cli_exit_code_is_checked(cli_out):
    assert tamper_cli(cli_out, "analyze", lambda r: dict(r, rc=2))


def test_cli_construct_cell_is_checked(cli_out):
    def flip(r):
        head, first, *rest = r["file"].split("\n")
        cells = first.split(",")
        cells[0] = "-1" if cells[0] == "+1" else "+1"
        return dict(r, file="\n".join([head, ",".join(cells), *rest]))
    assert tamper_cli(cli_out, "construct", flip)


def test_cli_analyze_report_is_checked(cli_out):
    def bump(r):
        payload = json.loads(r["file"])
        payload["resolution"] = "99"
        return dict(r, file=json.dumps(payload))
    assert tamper_cli(cli_out, "analyze", bump)


def test_cli_matrices_are_checked(cli_out):
    def bump(r):
        payload = json.loads(r["file"])
        payload["C"][0][0] += 1
        return dict(r, file=json.dumps(payload))
    assert tamper_cli(cli_out, "matrices", bump)


def test_cli_verify_mismatch_is_checked(cli_out):
    assert tamper_cli(cli_out, "verify", lambda r: dict(
        r, stdout="p=3 C row 1 cell 0: expected 1, got 2\n"
                  "verify: 1 mismatch(es)\n"))


def test_cli_extend_is_checked(cli_out):
    def bump(r):
        payload = json.loads(r["stdout"])
        payload["predicted_r"] += 1
        return dict(r, stdout=json.dumps(payload))
    assert tamper_cli(cli_out, "extend", bump)


# ------------------------------------------------------------------- rounds

def test_rounds_that_disagree_are_not_correct():
    same = {"digest": "a", "problems": [], "errors": []}
    assert run.verdict([same, dict(same)])[0]
    assert not run.verdict([same, dict(same, digest="b")])[0]
    assert not run.verdict([dict(same, problems=["x"])])[0]
