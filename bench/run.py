"""qcode benchmark: one workload, timed in fresh single-threaded processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qcode is imported from its
`src/`. Each round of the workload's seeded request list runs in a fresh
process (`worker.py`). There are at least two rounds, and more while
the next one is expected to end within S seconds. The first round's
outputs are checked. Times are in reference seconds (`speed.py`). The
last line of stdout is one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics from traced rounds
(alternating with untraced rounds, to measure the tracing overhead). Full per-round data go to
`.bench-out/`. `--tiny` shrinks every input, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("search", "oracle", "closed-form", "cli")
#: set-up is timed in at least this many fresh processes per run
SETUP_SAMPLES = 15
#: every run makes at least this many rounds: a search round takes about
#: 20 s, and one alone spreads too much from run to run
MIN_ROUNDS = 2
#: no round starts after this many seconds; a run must end within 180 s
LAST_START_S = 110
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
             "peak_rss_mib": "MiB"}


class RunError(RuntimeError):
    pass


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    return ap.parse_args(argv)


class Runner:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.out_dir = root / ".bench-out"
        self.out_dir.mkdir(exist_ok=True)
        self.began = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0",
                        **{name: "1" for name in PINNED})

    def spawn(self, mode: str, check: bool = False) -> dict:
        a = self.args
        left = 170 - (time.monotonic() - self.began)
        cmd = [sys.executable, str(HERE / "worker.py"), a.workload,
               str(a.seed), mode, repr(time.monotonic()), str(self.out_dir)]
        cmd += ["--tiny"] * a.tiny + ["--check"] * check
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            raise RunError(f"{mode} process passed the time limit")
        if proc.returncode != 0:
            raise RunError(f"{mode} process exited {proc.returncode}:\n"
                           + proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run(self) -> dict:
        a = self.args
        self.spawn("setup")  # warm-up: bytecode caches and page cache
        modes = ("round", "traced") if a.trace else ("round",)
        rounds: list[dict] = []
        start = time.monotonic()
        while len(rounds) < MIN_ROUNDS or (
                (time.monotonic() - start) * (len(rounds) + 1) / len(rounds)
                <= a.seconds
                and time.monotonic() - self.began <= LAST_START_S):
            rounds.append(self.spawn(modes[len(rounds) % len(modes)],
                                     check=not rounds))
        plain = [r for r in rounds if r["mode"] == "round"]
        traced = [r for r in rounds if r["mode"] == "traced"]
        if a.trace and not traced:
            raise RunError("no time was left for a traced round")
        setup_runs = list(plain)
        while not a.trace and len(setup_runs) < SETUP_SAMPLES:
            setup_runs.append(self.spawn("setup"))
        setups = [r["setup_s"] for r in setup_runs]

        correct, lines = verdict(rounds)
        for line in lines:
            print(line, file=sys.stderr)

        wall = list_wall(plain)
        if a.trace:
            metrics = {name: statistics.median(r["layers"][name]
                                               for r in traced)
                       for name in traced[0]["layers"]}
            metrics["trace.overhead_s"] = list_wall(traced) - wall
            units = LAYER_UNITS
            for name in traced[0]["absent"]:
                print(f"trace: {name} is absent from qcode", file=sys.stderr)
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": wall,
                "latency_p50_ms": 1000 * statistics.median(
                    x for r in plain for x in r["latencies"]),
                "peak_rss_mib": statistics.median(
                    r["peak_rss_mib"] for r in plain),
            }
            units = E2E_UNITS
        result = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        name = f"result-{a.workload}-seed{a.seed}-trace{a.trace}.json"
        (self.out_dir / name).write_text(json.dumps(
            {"result": result, "setups": setup_runs[len(plain):],
             "rounds": rounds}))
        return result


def list_wall(rounds: list[dict]) -> float:
    """Wall time of the request list: each request's median latency over
    the rounds, summed. A stall that hits one round's request is dropped;
    a cost that every round pays is kept."""
    return sum(statistics.median(lat) for lat in
               zip(*(r["latencies"] for r in rounds)))


def verdict(rounds: list[dict]) -> tuple[bool, list[str]]:
    """Correct when no check found a problem and every round of the same
    request list gave the same results; plus the lines to report."""
    lines = [f"failed: {e}" for r in rounds for e in r["errors"]]
    lines += [f"check: {p}" for r in rounds for p in r["problems"]]
    digests = {r["digest"] for r in rounds}
    if len(digests) > 1:
        lines.append("check: rounds of one request list gave different "
                     "results")
    return len(digests) == 1 and not any(r["problems"] for r in rounds), lines


def main(argv=None) -> int:
    args = parse(argv)
    root = Path.cwd()
    if not (root / "src" / "qcode" / "__init__.py").is_file():
        print("bench: run from the root of a qcode checkout (no "
              "src/qcode here)", file=sys.stderr)
        return 2
    try:
        result = Runner(args, root).run()
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
