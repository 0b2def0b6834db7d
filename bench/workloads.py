"""The four workloads: seeded request lists, their execution through the
public API, and the checks on their results.

A workload object has:
- `memory_share`: how its time follows the memory kernel of `speed.py`;
- `ps`: the p values whose equation systems a user builds before the
  first request (the lazy set-up counted in `setup_s`);
- `requests(rng, tiny)`: the fixed request list a seed gives;
- `prepare(requests, tmp)`: input files in a scratch directory (not timed);
- `run(qcode, req)`: one timed request;
- `plain(req, raw)`: the result as plain data, outside the timing;
- `check(qcode, requests, results, rng)`: a list of problems.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import checks


# ------------------------------------------------------------------ inputs

def random_rows(rng: random.Random, n: int, p: int, avoid=None) -> list:
    rows = []
    while len(rows) < n:
        row = tuple(rng.randrange(4) for _ in range(p))
        if avoid is None or tuple(x % 2 for x in row) != avoid:
            rows.append(row)
    return rows


def met_rows(rng: random.Random, n: int) -> list:
    """p = 3 rows with mass on every mixed parity pattern (n >= 3)."""
    rows = [tuple(rng.choice((1, 3)) if b else rng.choice((0, 2)) for b in pi)
            for pi in checks.MIXED_PARITIES] + random_rows(rng, n - 3, 3)
    rng.shuffle(rows)
    return rows


def failing_rows(rng: random.Random, n: int) -> list:
    """p = 3 rows with no mass on one mixed parity pattern."""
    return random_rows(rng, n, 3, avoid=rng.choice(checks.MIXED_PARITIES))


def make_generator(qcode, rows, p: int):
    return qcode.GeneratorSpec(len(rows), p, tuple(rows))


def plain_report(rep) -> dict:
    return {"runs": rep.runs, "factors": rep.factors, "method": rep.method,
            "k": tuple(rep.k_values), "a": tuple(rep.a_values),
            "spectrum": tuple(rep.spectrum.entries),
            "gwlp": tuple(rep.summary.gwlp),
            "resolution": rep.summary.resolution,
            "scanned": rep.summary.scanned_length,
            "met": rep.preconditions_met}


def sample_frequencies(rng: random.Random, n: int, p: int, count: int):
    out = []
    for _ in range(count):
        counts = [0] * 4 ** p
        for _ in range(n):
            counts[rng.randrange(1, 4 ** p)] += 1
        out.append(tuple(counts))
    return out


class Workload:
    def prepare(self, requests, tmp: Path) -> None:
        pass


# ------------------------------------------------------------------ search

class Search(Workload):
    """`search(3, 3)` under both criteria: 43,680 candidates each."""

    memory_share = 0.75  # batched WHTs over 43,680 candidates; see speed.py

    ps = (3,)

    def requests(self, rng, tiny):
        n, p = (2, 2) if tiny else (3, 3)
        return [{"op": "search", "n": n, "p": p, "criterion": c, "top": 3}
                for c in ("max_resolution", "gma")]

    def run(self, qcode, req):
        return qcode.search(req["n"], req["p"], criterion=req["criterion"],
                            top=req["top"])

    def plain(self, req, raw):
        return [{"F": tuple(f.counts), "resolution": rep.summary.resolution,
                 "gwlp": tuple(rep.summary.gwlp)} for f, rep in raw]

    def check(self, qcode, requests, results, rng):
        out = []
        for req, res in zip(requests, results):
            sample = sample_frequencies(rng, req["n"], req["p"], 60)
            out += checks.check_search(qcode, req, res, sample)
        return out


# ------------------------------------------------------------------ oracle

#: (p, n, rows, copies per round). p = 3, n = 5 (16 factors, both routes)
#: is over half the list, so the median latency falls inside that class.
ORACLE_MIX = (
    (3, 3, "met", 4), (3, 4, "met", 6), (3, 4, "fail", 4), (2, 5, "any", 4),
    (1, 6, "any", 4), (3, 5, "met", 50), (2, 6, "any", 3), (1, 7, "any", 2),
    (3, 6, "met", 4), (3, 6, "fail", 2), (2, 7, "any", 2), (3, 7, "met", 1),
    (3, 8, "met", 1),
)
ORACLE_TINY = ((3, 3, "met", 3), (3, 3, "fail", 1), (2, 3, "any", 1),
               (1, 4, "any", 1))


def oracle_request(rng, p, n, kind):
    rows = (met_rows(rng, n) if kind == "met" else
            failing_rows(rng, n) if kind == "fail" else random_rows(rng, n, p))
    # The scan guard prices the WHT as a subset scan and refuses every
    # design of 20 or more factors; a user passes --force-budget there.
    return {"op": f"{2 * n + 2 * p}f", "p": p, "rows": rows,
            "method": "both" if kind == "met" else "bruteforce",
            "force": 2 * n + 2 * p >= 20}


class Oracle(Workload):
    """`analyze` through the WHT oracle, on 12 to 22 factors."""

    memory_share = 0.5  # WHTs of 2^12 to 2^22 cells; see speed.py

    ps = (1, 2, 3)

    def requests(self, rng, tiny):
        reqs = [oracle_request(rng, p, n, kind)
                for p, n, kind, copies in (ORACLE_TINY if tiny else ORACLE_MIX)
                for _ in range(copies)]
        rng.shuffle(reqs)
        return reqs

    def run(self, qcode, req):
        g = make_generator(qcode, req["rows"], req["p"])
        return qcode.analyze(g, method=req["method"], force=req["force"])

    def plain(self, req, raw):
        return plain_report(raw)

    def check(self, qcode, requests, results, rng):
        out = []
        for i, (req, rep) in enumerate(zip(requests, results)):
            tag = f"oracle #{i} (p={req['p']}, n={len(req['rows'])})"
            out += checks.check_k_values(tag, req["rows"], req["p"], rep)
            if req["p"] == 3 and checks.meets_preconditions(req["rows"]):
                out += checks.check_mass_law(tag, rep)
            out += checks.check_sampled_words(tag, req["rows"], req["p"],
                                              rep, rng)
        return out


# ------------------------------------------------------------- closed form

#: (smallest n, largest n, requests per round); the middle band is 60% of
#: the list, so the median latency falls inside it.
CLOSED_FORM_MIX = ((4, 12, 80), (13, 60, 240), (61, 300, 80))
CLOSED_FORM_TINY = ((4, 8, 12),)


class ClosedForm(Workload):
    """`analyze(method="theory")` and `periodic_extend` at p = 3."""

    memory_share = 0.0  # interpreter-bound, small arrays; see speed.py

    ps = (3,)

    def requests(self, rng, tiny):
        reqs = [{"op": "theory", "rows": met_rows(rng, rng.randint(lo, hi)),
                 "t": rng.randint(1, 3)}
                for lo, hi, count in (CLOSED_FORM_TINY if tiny
                                      else CLOSED_FORM_MIX)
                for _ in range(count)]
        rng.shuffle(reqs)
        return reqs

    def run(self, qcode, req):
        g = make_generator(qcode, req["rows"], 3)
        rep = qcode.analyze(g, method="theory")
        return rep, qcode.periodic_extend(qcode.frequency_vector(g), req["t"])

    def plain(self, req, raw):
        rep, fam = raw
        return {"report": plain_report(rep),
                "family": {"extended": tuple(fam.extended.counts),
                           "r": fam.predicted_r, "rho": fam.predicted_rho,
                           "resolution": fam.predicted_resolution}}

    def check(self, qcode, requests, results, rng):
        out = []
        small = [i for i, r in enumerate(requests) if len(r["rows"]) <= 6]
        extended = set(rng.sample(range(len(requests)),
                                  min(40, len(requests))))
        for i, (req, res) in enumerate(zip(requests, results)):
            tag = f"closed-form #{i} (n={len(req['rows'])})"
            rep = res["report"]
            out += checks.check_k_values(tag, req["rows"], 3, rep)
            out += checks.check_mass_law(tag, rep)
            if i in small[:8]:
                out += checks.check_oracle_agreement(qcode, tag, req["rows"],
                                                     3, rep)
            if i in extended:
                out += checks.check_periodic(qcode, tag, res["family"])
        return out


# --------------------------------------------------------------------- cli

#: per-round make-up: analyze --method theory is 30 of the 48 requests,
#: so the median latency falls inside that class.
CLI_MIX = {"construct": (3, 4, 5), "both": (3, 4, 5), "theory": 30,
           "n": (4, 40), "matrices": (1, 2, 3, 5), "extend": 4}
CLI_TINY = {"construct": (3,), "both": (3,), "theory": 3, "n": (4, 8),
            "matrices": (1, 2), "extend": 1}


class Cli(Workload):
    """In-process `qcode.cli.main` calls on the documented file formats."""

    memory_share = 0.0  # interpreter-bound, small arrays; see speed.py

    ps = ()

    def requests(self, rng, tiny):
        mix = CLI_TINY if tiny else CLI_MIX
        reqs = [{"op": "construct", "rows": met_rows(rng, n)}
                for n in mix["construct"]]
        rest = [{"op": "analyze", "rows": r["rows"], "method": "bruteforce",
                 "design": i} for i, r in enumerate(reqs)]
        rest += [{"op": "analyze", "rows": met_rows(rng, n), "method": "both"}
                 for n in mix["both"]]
        rest += [{"op": "analyze", "method": "theory",
                  "rows": met_rows(rng, rng.randint(*mix["n"]))}
                 for _ in range(mix["theory"])]
        rest += [{"op": "matrices", "p": p} for p in mix["matrices"]]
        rest += [{"op": "verify"}]
        rest += [{"op": "extend", "t": rng.randint(1, 3),
                  "rows": met_rows(rng, rng.randint(*mix["n"]))}
                 for _ in range(mix["extend"])]
        rng.shuffle(rest)
        return reqs + rest  # each design is written before it is read

    def prepare(self, requests, tmp: Path) -> None:
        """Write each request's input file and fix its argv (not timed)."""
        for i, req in enumerate(requests):
            src, out = tmp / f"req{i}.in", tmp / f"req{i}.out"
            op = req["op"]
            if "design" in req:
                src = tmp / f"req{req['design']}.out"
            elif op in ("construct", "analyze"):
                src.write_text(json.dumps({"n": len(req["rows"]), "p": 3,
                                           "V": req["rows"]}))
            elif op == "extend":
                counts = [0] * 64
                for a, b, c in req["rows"]:
                    counts[16 * a + 4 * b + c] += 1
                src.write_text(json.dumps(counts))
            args = {"construct": ["--input", src],
                    "analyze": ["--input", src, "--method", req.get("method")],
                    "matrices": ["--p", req.get("p")],
                    "verify": [],
                    "extend": ["--input", src, "--t", req.get("t")]}[op]
            if op != "verify":
                args += ["--output", out]
            req["argv"] = [op] + [str(x) for x in args]
            req["out"] = out

    def run(self, qcode, req):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            rc = qcode.cli.main(req["argv"])
        return rc, out.getvalue()

    def plain(self, req, raw):
        rc, stdout = raw
        path = req["out"]
        return {"rc": rc, "stdout": stdout,
                "file": path.read_text() if path.exists() else None}

    def check(self, qcode, requests, results, rng):
        out = []
        for i, (req, res) in enumerate(zip(requests, results)):
            tag = f"cli #{i} {' '.join(req['argv'][:1] + req['argv'][3:5])}"
            if res["rc"] != 0:
                out.append(f"{tag}: exit code {res['rc']}")
                continue
            try:
                out += self._check_one(qcode, tag, req, res)
            except (ValueError, KeyError, TypeError) as exc:
                out.append(f"{tag}: unreadable output ({exc})")
        return out

    def _check_one(self, qcode, tag, req, res):
        op = req["op"]
        if op == "construct":
            got = checks.read_design_text(res["file"])
            if not (got == checks.design_cells(req["rows"], 3)).all():
                return [f"{tag}: design text differs from the Gray image "
                        "of the code"]
            return []
        if op == "analyze":
            g = make_generator(qcode, req["rows"], 3)
            rep = plain_report(qcode.analyze(g, method=req["method"]))
            if json.loads(res["file"]) != checks.report_payload(rep):
                return [f"{tag}: JSON report differs from analyze()"]
            return []
        if op == "matrices":
            sysm = qcode.build_system(req["p"])
            got = json.loads(res["file"])
            if (got["C"] != [list(r) for r in sysm.c_matrix()]
                    or got["B"] != [list(r) for r in sysm.b_matrix()]
                    or got["constants"] != list(sysm.constants)):
                return [f"{tag}: matrices differ from build_system()"]
            return []
        if op == "verify":
            lines = res["stdout"].splitlines()
            if len(lines) != 1 or "mismatch" in lines[0] \
                    or not lines[0].startswith("verify:"):
                return [f"{tag}: verify reported {lines}"]
            return []
        f = qcode.frequency_vector(make_generator(qcode, req["rows"], 3))
        fam = qcode.periodic_extend(f, req["t"])
        want = {"t": fam.t, "predicted_r": fam.predicted_r,
                "predicted_rho": str(fam.predicted_rho),
                "predicted_resolution": str(fam.predicted_resolution)}
        got = json.loads(res["stdout"])
        if ({k: got[k] for k in want} != want
                or json.loads(res["file"]) != list(fam.extended.counts)):
            return [f"{tag}: extend output differs from periodic_extend()"]
        return []


WORKLOADS = {"search": Search(), "oracle": Oracle(),
             "closed-form": ClosedForm(), "cli": Cli()}
