"""Command-line front-end.

Subcommands wrap one library call each and exchange the documented
file formats: generator JSON, design text, frequency-vector JSON
arrays, and JSON reports with rationals rendered as "num/den" strings.
Exit codes: 0 success, 1 verification mismatch, 2 input error,
3 resource-guard refusal, 4 internal error (a fault in qcode itself,
reported as one line naming the exception).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .equations import build_system
from .golden import FROZEN_PS, GoldenDataError, verify_all, wordtype_str
from .jchar import (WordSpectrum, spectrum_bruteforce, summarize,
                    word_length_limit)
from .theory import (PreconditionError, SpectrumMismatch, TheoryReport,
                     analyze, fixed_point_7, periodic_extend, search)
from .z4 import (BudgetExceeded, FrequencyVector, build_design,
                 design_from_text, design_to_text, generator_for_frequency,
                 load_generator)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _output(args):
    """The file a result goes to, as a context: --output, or else stdout."""
    return (Path(args.output).open("w") if args.output
            else contextlib.nullcontext(sys.stdout))


def _emit(args, payload, text) -> None:
    """Write a result to `_output(args)`: `payload` as JSON, or with
    --format text, the lines that `text(payload)` yields, one at a time."""
    with _output(args) as fh:
        if args.format == "json":
            _write_json(fh, payload)
        else:
            fh.writelines(text(payload))


_LITERALS = {None: "null", True: "true", False: "false"}


def _write_json(fh, payload) -> None:
    """Write `json.dumps(payload, indent=2) + "\n"` to `fh`, byte for
    byte, a chunk at a time (`matrices --p 6` is 79 MB), for str-keyed
    dicts, lists, tuples, str, int, bool and None, and integer ndarrays
    of one or more axes as their `tolist()`: a list of plain ints goes
    in one join, a 2-D array a row at a time."""
    _render(payload, "\n", fh.write)
    fh.write("\n")


def _render(obj, pad: str, emit) -> None:
    """Pass the chunks of `obj`, whose lines continue after `pad`, to
    `emit` in order."""
    kind = type(obj)
    if kind is str:
        emit(encode_basestring_ascii(obj))
    elif kind is int:
        emit(int.__repr__(obj))
    elif obj is None or kind is bool:
        emit(_LITERALS[obj])
    elif kind is np.ndarray and obj.dtype.kind in "iu" and obj.ndim:
        if obj.ndim != 2 or not obj.size:
            _render(obj.tolist(), pad, emit)
            return
        inner, deeper = pad + "  ", pad + "    "
        sep = "[" + inner
        for text in _join_rows(obj, "," + deeper):
            emit(sep + "[" + deeper + text + inner + "]")
            sep = "," + inner
        emit(pad + "]")
    elif kind is list or kind is tuple:
        if not obj:
            emit("[]")
            return
        inner = pad + "  "
        if set(map(type, obj)) == {int}:
            emit("[" + inner + ("," + inner).join(map(int.__repr__, obj))
                 + pad + "]")
            return
        sep = "[" + inner
        for item in obj:
            emit(sep)
            _render(item, inner, emit)
            sep = "," + inner
        emit(pad + "]")
    elif kind is dict:
        if not obj:
            emit("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in obj.items():
            emit(sep + encode_basestring_ascii(key) + ": ")
            _render(value, inner, emit)
            sep = "," + inner
        emit(pad + "}")
    else:
        raise TypeError(f"{kind.__name__} is not rendered as JSON")


def _join_rows(a: np.ndarray, sep: str) -> Iterator[str]:
    """Yield `sep.join(map(str, row))` for each row of a 2-D integer
    array.  A uint8 array of digits 0..9, as C and B are, fills one byte
    template, `sep` and one digit per cell, a row at a time; any other
    array is joined from its `tolist()`."""
    if a.dtype != np.uint8 or a.size and a.max() > 9:
        for row in a.tolist():
            yield sep.join(map(str, row))
        return
    head = np.frombuffer(sep.encode(), np.uint8)
    cells = np.empty((a.shape[1], len(head) + 1), np.uint8)
    cells[:, :-1] = head
    text = cells.ravel()[len(head):]
    for row in a:
        np.add(row, ord("0"), out=cells[:, -1])
        yield str(text, "ascii")


def _report_payload(runs: int, factors: int, method: str,
                    spec: WordSpectrum, summary) -> dict:
    return {
        "runs": runs,
        "factors": factors,
        "spectrum": [{"length": l, "rho": str(r), "count": c}
                     for l, r, c in spec.entries],
        "gwlp": [str(x) for x in summary.gwlp],
        "resolution": summary.resolution_text(),
        "method": method,
    }


def _report_text(payload: dict, summary) -> Iterator[str]:
    yield (f"runs={payload['runs']} factors={payload['factors']} "
           f"method={payload['method']}\n")
    yield "length rho count\n"
    for row in payload["spectrum"]:
        yield f"{row['length']} {row['rho']} {row['count']}\n"
    yield "gwlp " + " ".join(payload["gwlp"]) + "\n"
    res = payload["resolution"]
    if summary.resolution is not None:
        res += f" ({fixed_point_7(summary.resolution)})"
    yield f"resolution = {res}\n"


def _matrices_text(payload: dict) -> Iterator[str]:
    yield f"p={payload['p']}\n"
    for label, const, text in zip(payload["K_order"], payload["constants"],
                                  _join_rows(payload["C"], " ")):
        yield f"k_{label} (+{const}): {text}\n"
    for label, delta, text in zip(payload["A_order"], payload["deltas"],
                                  _join_rows(payload["B"], " ")):
        yield f"a_{label} (delta {delta}): {text}\n"


def cmd_construct(args) -> int:
    g = load_generator(args.input)
    d = build_design(g)
    with _output(args) as fh:
        design_to_text(d, fh.write)
    if args.output:
        print(f"runs={d.runs} factors={d.factors}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    raw = Path(args.input).read_text()
    if raw.lstrip().startswith("runs="):
        if args.method != "bruteforce":
            print("analyze: a bare design matrix has no generator; "
                  "only --method bruteforce applies", file=sys.stderr)
            return EXIT_INPUT
        d = design_from_text(raw)
        del raw  # not held through the transform: 18 MB at 2^18 runs
        max_len = word_length_limit(d.factors, args.max_length)
        spec = spectrum_bruteforce(d, max_len, force=args.force_budget)
        summary = summarize(spec, d.factors, max_len)
        payload = _report_payload(d.runs, d.factors, "bruteforce",
                                  spec, summary)
    else:
        g = load_generator(args.input)
        rep: TheoryReport = analyze(g, method=args.method,
                                    max_length=args.max_length,
                                    force=args.force_budget)
        summary = rep.summary
        payload = _report_payload(rep.runs, rep.factors, rep.method,
                                  rep.spectrum, summary)
    _emit(args, payload, lambda payload: _report_text(payload, summary))
    return EXIT_OK


def cmd_matrices(args) -> int:
    sysm = build_system(args.p)
    payload = {
        "p": args.p,
        "K_order": [wordtype_str(w) for w in sysm.k_order],
        "constants": sysm.constants,
        "C": sysm.C,
        "A_order": [wordtype_str(pi) for pi in sysm.a_order],
        "deltas": sysm.deltas,
        "B": sysm.B,
    }
    _emit(args, payload, _matrices_text)
    return EXIT_OK


def cmd_verify(args) -> int:
    ps = (args.p,) if args.p else FROZEN_PS
    diffs = verify_all(ps)
    for diff in diffs:
        print(diff)
    if diffs:
        print(f"verify: {len(diffs)} mismatch(es)")
        return EXIT_MISMATCH
    print(f"verify: matrices p={','.join(map(str, ps))} and all frozen "
          "examples match")
    return EXIT_OK


def cmd_search(args) -> int:
    results = search(args.n, args.p, criterion=args.criterion,
                     top=args.top, force=args.force_budget)
    payload = [{
        "F": list(f.counts),
        "K": list(rep.k_values),
        "A": list(rep.a_values),
        "gwlp": [str(x) for x in rep.summary.gwlp],
        "resolution": rep.summary.resolution_text(),
        "witness_V": [list(row) for row in generator_for_frequency(f).V],
    } for f, rep in results]
    _emit(args, payload, lambda payload: (
        f"#{i} resolution={row['resolution']} F={row['F']} "
        f"V={row['witness_V']}\n" for i, row in enumerate(payload, 1)))
    return EXIT_OK


def _load_frequency(path: str) -> FrequencyVector:
    try:
        counts = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"frequency file {path} is not readable JSON: {exc}")
    if not isinstance(counts, list):
        raise ValueError(f"frequency file {path} must hold a JSON array")
    p = 1
    while 4 ** p < len(counts):
        p += 1
    if 4 ** p != len(counts):
        raise ValueError(
            f"frequency file {path} has {len(counts)} cells; it needs 4^p "
            "cells for some p >= 1")
    return FrequencyVector(p, tuple(counts))


def cmd_extend(args) -> int:
    f0 = _load_frequency(args.input)
    fam = periodic_extend(f0, args.t)
    try:  # rendered before --output is written, so a failure leaves none
        payload = {
            "t": fam.t,
            "predicted_r": fam.predicted_r,
            "predicted_rho": str(fam.predicted_rho),
            "predicted_resolution": str(fam.predicted_resolution),
            "rendered_resolution": fixed_point_7(fam.predicted_resolution),
        }
    except ValueError:  # past the interpreter's int to str digit limit
        raise ValueError(
            f"t = {fam.t} predicts a rho whose denominator has more than "
            f"{sys.get_int_max_str_digits():,} digits, Python's limit for "
            "printing an int") from None
    if args.output:
        with _output(args) as fh:
            _write_json(fh, fam.extended.counts)
    if args.format == "text":
        print(f"t={fam.t} r={fam.predicted_r} rho={fam.predicted_rho} "
              f"resolution={payload['rendered_resolution']}")
    else:
        _write_json(sys.stdout, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcode",
        description="Quaternary-code two-level designs: construction, "
                    "exact aliasing analysis, and search.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, fmt=True, force=False):
        sp.add_argument("--output", help="write the result here instead "
                                         "of stdout")
        if fmt:
            sp.add_argument("--format", choices=("json", "text"),
                            default="json")
        if force:
            sp.add_argument("--force-budget", action="store_true",
                            help="run past the resource guard")

    sp = sub.add_parser("construct", help="generator JSON -> design text")
    sp.add_argument("--input", required=True)
    common(sp, fmt=False)

    sp = sub.add_parser("analyze", help="aliasing report for a generator "
                                        "or design file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--method", choices=("theory", "bruteforce", "both"),
                    default="theory")
    sp.add_argument("--max-length", type=int, default=None)
    common(sp, force=True)

    sp = sub.add_parser("matrices", help="emit the coefficient matrices")
    sp.add_argument("--p", type=int, required=True)
    common(sp)

    sp = sub.add_parser("verify", help="diff regenerated matrices and "
                                       "examples against frozen data")
    sp.add_argument("--p", type=int, choices=FROZEN_PS, default=None)

    sp = sub.add_parser("search", help="rank all frequency vectors for "
                                       "given n, p")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--criterion", choices=("max_resolution", "gma"),
                    default="max_resolution")
    sp.add_argument("--top", type=int, default=1)
    common(sp, force=True)

    sp = sub.add_parser("extend", help="uniform periodic extension of a "
                                       "frequency vector")
    sp.add_argument("--input", required=True)
    sp.add_argument("--t", type=int, required=True)
    common(sp)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    name = args.subcommand
    try:
        # looked up per call, so a rebound cmd_<name> is the one run
        return globals()[f"cmd_{name}"](args)
    except BudgetExceeded as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SpectrumMismatch, GoldenDataError) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (PreconditionError, ValueError, OSError) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # no input can cause these: a fault in qcode
        print(f"{name}: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
