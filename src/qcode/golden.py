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

import numpy as np

from .equations import (all_odd_closed_form, build_system, ca_add,
                        canonical_wordtypes)
from .theory import analyze, evaluate, fixed_point_7, periodic_extend
# after .theory, which imports jchar itself: compiling jchar first, without
# cached bytecode, leaves about 0.3 MiB more resident after the import
from .jchar import _column_gram
from .z4 import (GeneratorSpec, build_design, cell_digits,
                 frequency_vector)

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


def _expect(diffs: list[str], label: str, got, want) -> None:
    """Report a frozen value that the package no longer reproduces."""
    if got != want:
        diffs.append(f"{label} expected {want}, got {got}")


def _short_gwlp(g: GeneratorSpec) -> list[Fraction]:
    """A_1 and A_2 of the design of `g`, which no report covers: A_k =
    sum over the k-subsets S of (j_S / runs)^2, with j of one column its
    sum and j of a pair its cell of the columns' Gram matrix."""
    d = build_design(g)
    one = d.cells.sum(axis=0, dtype=np.int64)
    pairs = _column_gram(d)[np.triu_indices(d.factors, 1)]
    return [Fraction(int((j ** 2).sum()), d.runs ** 2) for j in (one, pairs)]


def verify_examples() -> list[str]:
    """Re-run every frozen example end to end; return the diffs."""
    ex = load_examples()
    diffs: list[str] = []

    sys2 = build_system(2)
    fx = ex["oplus_p2"]
    k10 = sys2.k_equation((1, 0))
    k02 = sys2.k_equation((0, 2))
    for key, got in (("k_10", k10), ("k_02", k02), ("sum", ca_add(k10, k02))):
        _diff_cells(diffs, f"oplus_p2: {key}", got.coeffs, fx[key])

    part = ex["all_odd_p2_partition"]
    eq = all_odd_closed_form(2)
    labels = [wordtype_str(d) for d in cell_digits(range(16), 2).tolist()]
    for value, key in ((0, "zero_cells"), (1, "one_cells"), (2, "two_cells")):
        got = [labels[i] for i, c in enumerate(eq.coeffs) if c == value]
        _expect(diffs, f"all_odd_p2_partition: {key}", sorted(got),
                sorted(part[key]))

    d4 = ex["design_256x14"]
    g = GeneratorSpec(4, 3, tuple(tuple(r) for r in d4["V"]))
    f = frequency_vector(g)
    _diff_cells(diffs, "design_256x14: F_one_cells",
                [i for i, c in enumerate(f.counts) if c], d4["F_one_cells"])
    sys3 = build_system(3)
    ev = evaluate(f)
    _diff_cells(diffs, "design_256x14: A", ev.a_values, d4["A"])
    labels3 = [wordtype_str(w) for w in sys3.k_order]
    got_len = [k + c for k, c in zip(ev.k_values, sys3.constants)]
    for what, got, want in (("K", ev.k_values, d4["K"]),
                            ("lengths", got_len, d4["lengths"])):
        _diff_cells(diffs, f"design_256x14: {what}", got, want,
                    lambda i: f"cell {i} ({labels3[i]})")
    rep = analyze(g, method="both")  # closed form vs subset scan
    _diff_cells(diffs, "design_256x14: spectrum",
                [[l, str(r), c] for l, r, c in rep.spectrum.entries],
                d4["spectrum"])
    _diff_cells(diffs, "design_256x14: gwlp_from_1",
                [str(x) for x in _short_gwlp(g) + list(rep.summary.gwlp)],
                [str(Fraction(v)) for v in d4["gwlp_from_1"]],
                lambda i: f"A_{i + 1}")
    _expect(diffs, "design_256x14: resolution", str(rep.summary.resolution),
            d4["resolution"])

    pe = ex["periodic_extension"]
    fam = periodic_extend(f, pe["t"])
    _diff_cells(diffs, "periodic_extension: Ft", fam.extended.counts, pe["Ft"])
    for key, got in (("r", fam.predicted_r), ("rho", str(fam.predicted_rho)),
                     ("rendered_resolution",
                      fixed_point_7(fam.predicted_resolution))):
        _expect(diffs, f"periodic_extension: {key}", got, pe[key])

    for key, want in ex["wordtype_counts"].items():
        _expect(diffs, f"wordtype_counts: p={key}",
                len(canonical_wordtypes(int(key))), want)
    return diffs


def verify_all(ps: tuple[int, ...] = FROZEN_PS) -> list[str]:
    diffs: list[str] = []
    for p in ps:
        diffs.extend(verify_matrices(p))
    diffs.extend(verify_examples())
    return diffs
