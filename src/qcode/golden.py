"""Frozen reference data and the verification runner.

The JSON files under `golden/` were recorded once and are never
regenerated by the code under test; a checksum manifest guards them
against drift.  `verify_all` rebuilds everything the package derives
(matrices, orderings, example designs) and diffs it cell by cell
against the frozen data.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from importlib.resources import files

from .equations import (all_odd_closed_form, build_system, ca_add,
                        canonical_wordtypes)
from .theory import analyze, evaluate, fixed_point_7, periodic_extend
from .z4 import GeneratorSpec, cell_digits, frequency_vector

#: the p values with frozen matrices, all checked by `verify_all`
FROZEN_PS = (1, 2, 3)


class GoldenDataError(RuntimeError):
    """Golden data missing or failing its checksum."""


def _read(name: str) -> bytes:
    try:
        return (files("qcode") / "golden" / name).read_bytes()
    except FileNotFoundError as exc:
        raise GoldenDataError(f"golden file {name} is missing") from exc


def _checksums() -> dict[str, str]:
    out = {}
    for line in _read("CHECKSUMS.sha256").decode().splitlines():
        if line.strip():
            digest, fname = line.split()
            out[fname] = digest
    return out


def _load(name: str) -> dict:
    raw = _read(name)
    want = _checksums().get(name)
    if want is None:
        raise GoldenDataError(f"{name} has no checksum entry")
    got = hashlib.sha256(raw).hexdigest()
    if got != want:
        raise GoldenDataError(
            f"{name} fails its checksum: expected {want}, got {got}")
    return json.loads(raw)


def load_matrices(p: int) -> dict:
    if p not in FROZEN_PS:
        raise ValueError(f"frozen matrices exist for p in {set(FROZEN_PS)}")
    return _load(f"matrices_p{p}.json")


def load_examples() -> dict:
    return _load("examples.json")


def wordtype_str(w: tuple[int, ...]) -> str:
    return "".join(str(x) for x in w)


def _diff_cells(diffs: list[str], prefix: str, got, want,
                name=lambda i: f"cell {i}") -> None:
    """Report every differing cell the two sequences share (recursing
    into the rows of a matrix) and any difference in their lengths."""
    got, want = list(got), list(want)
    nested = bool(want) and isinstance(want[0], list)
    if len(got) != len(want):
        diffs.append(f"{prefix} expected {len(want)} "
                     f"{'rows' if nested else 'cells'}, got {len(got)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if nested:
            _diff_cells(diffs, f"{prefix} {name(i)}", g, w)
        elif g != w:
            diffs.append(f"{prefix} {name(i)}: expected {w}, got {g}")


def verify_matrices(p: int) -> list[str]:
    """Diff the regenerated equation system against the frozen one."""
    gold = load_matrices(p)
    sysm = build_system(p)
    diffs: list[str] = []
    got_k = [wordtype_str(w) for w in sysm.k_order]
    got_a = [wordtype_str(pi) for pi in sysm.a_order]
    _diff_cells(diffs, f"p={p} K_order", got_k, gold["K_order"],
                lambda i: f"position {i}")
    _diff_cells(diffs, f"p={p} constants", sysm.constants, gold["constants"],
                lambda i: f"row {got_k[i]} cell {i}")
    _diff_cells(diffs, f"p={p} C", sysm.c_matrix(), gold["C"],
                lambda i: f"row {got_k[i]}")
    _diff_cells(diffs, f"p={p} A_order", got_a, gold["A_order"],
                lambda i: f"position {i}")
    _diff_cells(diffs, f"p={p} deltas", sysm.deltas, gold["deltas"],
                lambda i: f"row {got_a[i]} cell {i}")
    _diff_cells(diffs, f"p={p} B", sysm.b_matrix(), gold["B"],
                lambda i: f"row {got_a[i]}")
    return diffs


def verify_examples() -> list[str]:
    """Re-run every frozen example end to end; return the diffs."""
    ex = load_examples()
    diffs: list[str] = []

    sys2 = build_system(2)
    fx = ex["oplus_p2"]
    k10 = sys2.k_equation((1, 0))
    k02 = sys2.k_equation((0, 2))
    if list(k10.coeffs) != fx["k_10"]:
        diffs.append("oplus_p2: k_10 row disagrees")
    if list(k02.coeffs) != fx["k_02"]:
        diffs.append("oplus_p2: k_02 row disagrees")
    if list(ca_add(k10, k02).coeffs) != fx["sum"]:
        diffs.append("oplus_p2: cellwise sum disagrees")

    part = ex["all_odd_p2_partition"]
    eq = all_odd_closed_form(2)
    labels = [wordtype_str(d) for d in cell_digits(range(16), 2).tolist()]
    for value, key in ((0, "zero_cells"), (1, "one_cells"), (2, "two_cells")):
        got = {labels[i] for i, c in enumerate(eq.coeffs) if c == value}
        if got != set(part[key]):
            diffs.append(f"all_odd_p2_partition: {key} expected "
                         f"{sorted(part[key])}, got {sorted(got)}")

    d4 = ex["design_256x14"]
    g = GeneratorSpec(4, 3, tuple(tuple(r) for r in d4["V"]))
    f = frequency_vector(g)
    ones = [i for i, c in enumerate(f.counts) if c]
    if ones != d4["F_one_cells"]:
        diffs.append(f"design_256x14: F cells expected {d4['F_one_cells']}, "
                     f"got {ones}")
    sys3 = build_system(3)
    ev = evaluate(f)
    if list(ev.a_values) != d4["A"]:
        diffs.append(f"design_256x14: A expected {d4['A']}, "
                     f"got {list(ev.a_values)}")
    labels3 = [wordtype_str(w) for w in sys3.k_order]
    got_len = [k + c for k, c in zip(ev.k_values, sys3.constants)]
    for what, got, want in (("K", ev.k_values, d4["K"]),
                            ("lengths", got_len, d4["lengths"])):
        _diff_cells(diffs, f"design_256x14: {what}", got, want,
                    lambda i: f"cell {i} ({labels3[i]})")
    rep = analyze(g, method="both")  # closed form vs subset scan
    got_spec = [[l, str(r), c] for l, r, c in rep.spectrum.entries]
    want_spec = [[l, r, c] for l, r, c in d4["spectrum"]]
    if got_spec != want_spec:
        diffs.append(f"design_256x14: spectrum expected {want_spec}, "
                     f"got {got_spec}")
    got_gwlp = [str(x) for x in rep.summary.gwlp]
    want_gwlp = [str(Fraction(v)) for v in d4["gwlp_from_1"][2:]]
    if got_gwlp != want_gwlp:
        diffs.append(f"design_256x14: gwlp expected {want_gwlp}, "
                     f"got {got_gwlp}")
    if str(rep.summary.resolution) != d4["resolution"]:
        diffs.append(f"design_256x14: resolution expected "
                     f"{d4['resolution']}, got {rep.summary.resolution}")

    pe = ex["periodic_extension"]
    fam = periodic_extend(f, pe["t"])
    if list(fam.extended.counts) != pe["Ft"]:
        diffs.append("periodic_extension: extended vector disagrees")
    if fam.predicted_r != pe["r"]:
        diffs.append(f"periodic_extension: r expected {pe['r']}, "
                     f"got {fam.predicted_r}")
    if str(fam.predicted_rho) != pe["rho"]:
        diffs.append(f"periodic_extension: rho expected {pe['rho']}, "
                     f"got {fam.predicted_rho}")
    if fixed_point_7(fam.predicted_resolution) != pe["rendered_resolution"]:
        diffs.append("periodic_extension: rendered resolution expected "
                     f"{pe['rendered_resolution']}, got "
                     f"{fixed_point_7(fam.predicted_resolution)}")

    for key, want in ex["wordtype_counts"].items():
        got = len(canonical_wordtypes(int(key)))
        if got != want:
            diffs.append(f"wordtype_counts: p={key} expected {want}, "
                         f"got {got}")
    return diffs


def verify_all(ps: tuple[int, ...] = FROZEN_PS) -> list[str]:
    diffs: list[str] = []
    for p in ps:
        diffs.extend(verify_matrices(p))
    diffs.extend(verify_examples())
    return diffs
