"""One fresh, single-threaded process of a benchmark run.

    python bench/worker.py WORKLOAD SEED MODE SPAWNED_AT OUT_DIR \
        [--tiny] [--check]

MODE is `setup` (set up, report the set-up time, exit), `round` (set up,
then run the workload's request list once, timed) or `traced` (the same
with spans installed). SPAWNED_AT is the parent's `time.monotonic()`
just before it started this process, so the set-up time includes
interpreter start-up. Every time is reported both as measured and
scaled to reference seconds by `speed.py`. The last line of stdout is one
JSON object.
"""

import contextlib
import json
import sys
import time

import speed


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned_at, out_dir = argv[:5]
    import qcode
    if workload == "cli":
        import qcode.cli  # noqa: F401

    tr = None
    if mode == "traced":
        from tracer import Tracer
        tr = Tracer()
        tr.install()
    import workloads
    wl = workloads.WORKLOADS[workload]
    for p in wl.ps:
        with tr.span("setup") if tr else contextlib.nullcontext():
            qcode.build_system(p)
    setup_s = time.monotonic() - float(spawned_at)
    if mode == "setup":
        meter = speed.Meter(wl.memory_share)
        print(json.dumps({"setup_raw_s": setup_s,
                          "setup_s": setup_s * meter.scale(speed.SETUP_SHARE),
                          "compute": meter.compute, "memory": meter.memory}))
        return 0
    return run_round(qcode, wl, workload, int(seed), mode, setup_s, out_dir,
                     tr, "--tiny" in argv, "--check" in argv)


def run_round(qcode, wl, workload, seed, mode, setup_s, out_dir, tr,
              tiny, check) -> int:
    import hashlib
    import random
    import resource
    import shutil
    import tempfile
    from pathlib import Path

    requests = wl.requests(random.Random(seed), tiny)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    try:
        wl.prepare(requests, tmp)
        raws, latencies, errors = [], [], []
        meter = speed.Meter(wl.memory_share)
        for i, req in enumerate(requests):
            t0 = time.perf_counter()
            try:
                if tr:
                    tr.request = i
                with tr.span("request") if tr else contextlib.nullcontext():
                    raws.append(wl.run(qcode, req))
            except Exception as exc:  # a failed request is counted, not fatal
                raws.append(exc)
                errors.append(f"request {i} ({req['op']}): "
                              f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            meter.after(latencies[-1])
        meter.close()
        peak_mib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    - speed.MEMORY_MIB)
        if tr:
            tr.uninstall()
        results = [type(raw).__name__ if isinstance(raw, Exception)
                   else wl.plain(req, raw) for req, raw in zip(requests, raws)]
        done = [i for i, raw in enumerate(raws)
                if not isinstance(raw, Exception)]
        problems = (wl.check(qcode, [requests[i] for i in done],
                             [results[i] for i in done],
                             random.Random(seed + 1)) if check else [])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    scale = meter.scale()
    out = {"mode": mode, "setup_raw_s": setup_s,
           "setup_s": setup_s * meter.scale(speed.SETUP_SHARE),
           "latencies_raw": latencies,
           "latencies": [x * scale for x in latencies], "scale": scale,
           "compute": meter.compute, "memory": meter.memory,
           "peak_rss_mib": peak_mib,
           "attempted": len(requests), "failed": len(errors),
           "errors": errors, "problems": problems,
           "digest": hashlib.sha256(repr(results).encode()).hexdigest()}
    if tr:
        from tracer import layer_metrics
        out["layers"] = layer_metrics(tr.spans, requests, scale)
        out["absent"] = tr.absent
        tr.dump(Path(out_dir) / f"trace-{workload}-seed{seed}.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
