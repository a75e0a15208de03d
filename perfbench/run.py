"""lucasaps benchmark: time fixed workloads through the public API and CLI.

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 28 --trace 0

Each iteration runs in a fresh interpreter (perfbench/child.py), so the term
memo starts cold as it does for every CLI call.  Iterations repeat until the
next one would overrun --seconds; set-up is also probed on its own before
and between them.  Every case output is checked against the pinned digests.

Times are reported at reference speed.  Other tenants of a shared host slow
the machine by 20-60% for seconds to minutes, so every child also times a
fixed reference loop every 0.1 s while its cases run, and each case time is
scaled by REF_LOOP_MS over the loop's mean time around that case.  A change
to lucasaps cannot move the loop, so it moves the scaled times fully.  A
case's latency is its median over iterations; wall_s is the median over
iterations of the summed case latencies; setup_s is the median of the
set-up probes, each scaled by the loop samples taken right after it.  The
unscaled figures are in the details line.

With --trace 0 the last line carries the end-to-end metrics declared in
BENCHMARK.json, measured with no wrappers installed.  With --trace 1 the run
alternates untraced and traced iterations and the last line carries the
per-layer metrics; trace.overhead_frac compares the two.  The line before the
last holds the details: machine, commit, load average, the tail percentile,
failed cases and any metric that is absent.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import owner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_PROBES = 5
# The reference loop's time, in ms, on a quiet 2.1 GHz Xeon VM core with
# Python 3.11: the speed every reported time is scaled to.
REF_LOOP_MS = 6.0
LOCAL_S = 0.05
RUN_LIMIT_S = 170
TAIL_PERCENTILES = (99.9, 99.5, 99, 95, 90, 75, 50)
MIN_BEYOND = 10


class BenchError(Exception):
    pass


def tail_percentile(n: int):
    """Highest percentile of n samples with at least MIN_BEYOND samples
    ranked beyond it (nearest-rank), or None when n is too small."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= MIN_BEYOND:
            return p
    return None


def nearest_rank(samples, p):
    ordered = sorted(samples)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


def _run_child(args, timeout):
    proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment():
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lucasaps").rglob("*")):
        if path.suffix in (".py", ".json"):
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": (_read("/proc/loadavg") or "").strip(),
    }


def measure(workload, seed, seconds, trace):
    """Run iterations until the next would overrun `seconds`, probing set-up
    before the first and after each; return (iterations, setup samples)."""
    start = time.monotonic()
    deadline = start + seconds

    def remaining():
        return max(10.0, RUN_LIMIT_S - (time.monotonic() - start))

    def probe_setup():
        return _run_child(["--setup-only"], remaining())

    probe_setup()  # compiles bytecode once; users do not pay that per call
    setups = [probe_setup() for _ in range(SETUP_PROBES)]
    modes = (0, 1) if trace else (0,)
    iterations, durations = [], []
    while True:
        mode = modes[len(iterations) % len(modes)]
        t = time.monotonic()
        iterations.append(_run_child(
            ["--workload", workload, "--seed", str(seed), "--trace", str(mode)], remaining()))
        durations.append(time.monotonic() - t)
        setups.append(probe_setup())
        if (len(iterations) >= len(modes)
                and time.monotonic() + statistics.median(durations) > deadline):
            break
    return iterations, setups


def loop_ms(child) -> float:
    return statistics.fmean(ms for _, ms in child["cal"])


def scaled_case_ms(it) -> dict:
    """Each case's latency at reference speed.  The machine's speed changes
    within seconds, so a case is scaled by the reference-loop samples taken
    within LOCAL_S of it; with none there, by the next sample (or the last)."""
    at = [t for t, _ in it["cal"]]
    out = {}
    for cid, ms in it["case_ms"].items():
        start = it["case_start_s"][cid]
        lo = bisect.bisect_left(at, start - LOCAL_S)
        hi = bisect.bisect_right(at, start + ms / 1e3 + LOCAL_S)
        near = it["cal"][lo:hi] or it["cal"][min(lo, len(at) - 1):][:1]
        out[cid] = ms * REF_LOOP_MS / statistics.fmean(m for _, m in near)
    return out


def case_ms(iterations) -> dict:
    """Each case's median latency at reference speed over the iterations."""
    samples = {}
    for it in iterations:
        for cid, ms in scaled_case_ms(it).items():
            samples.setdefault(cid, []).append(ms)
    return {cid: statistics.median(ms) for cid, ms in samples.items()}


def wall_s(iterations) -> float:
    """Median over iterations of the summed case latencies, in s."""
    return statistics.median(sum(scaled_case_ms(it).values()) / 1e3 for it in iterations)


def summarize(iterations, setups, trace, declared):
    """Metrics by name, and the details that do not fit a metric."""
    plain = [it for it in iterations if not it["trace"]]
    traced = [it for it in iterations if it["trace"]]
    cases = sorted(case_ms(plain).values())
    measured = {
        "wall_s": wall_s(plain),
        "case_p50_ms": statistics.median(cases),
        "setup_s": statistics.median(s["setup_s"] * REF_LOOP_MS / loop_ms(s) for s in setups),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
    }
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(len(it["failed_ids"]) for it in iterations)
    errors = {cid: err for it in iterations for cid, err in it["errors"].items()}
    p = tail_percentile(len(cases))
    details = {
        "iterations": len(iterations),
        "iteration_wall_s": [it["wall_s"] for it in plain],
        "iteration_ref_loop_ms": [loop_ms(it) for it in plain],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_ref_loop_ms": [loop_ms(s) for s in setups],
        "unscaled_wall_s": statistics.median(it["wall_s"] for it in plain),
        "unscaled_setup_s": statistics.median(s["setup_s"] for s in setups),
        "cases": len(cases),
        "case_tail": None if p is None else {
            "percentile": p,
            "ms": nearest_rank(cases, p),
            "beyond": len(cases) - math.ceil(p / 100 * len(cases)),
        },
        "failed_frac": failed / attempted,
        "failed_ids": sorted({cid for it in iterations for cid in it["failed_ids"]})[:50],
        "errors": dict(sorted(errors.items())[:10]),
        "workload_digests": sorted({it["workload_digest"] for it in iterations}),
    }
    if trace:
        layers = {name: statistics.median_low(it["layers"].get(name, 0) for it in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = wall_s(traced) / measured["wall_s"] - 1
        live = set(traced[0]["installed"]) - set(traced[0]["broken_observers"])
        for name in declared:
            if name not in layers and owner(name) in live:
                layers[name] = 0
        details["undeclared_layer_metrics"] = {k: v for k, v in layers.items()
                                               if k not in declared}
        details["self_time_shares"] = {
            k[:-len(".self_s")]: v / statistics.median_low(it["wall_s"] for it in traced)
            for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
            if k.endswith(".self_s") and v > 0
        }
        measured = layers
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in declared.items() if name in measured}
    details["absent_metrics"] = [name for name in declared if name not in measured]
    return metrics, attempted, failed, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lucasaps" / "__init__.py").is_file():
        print(f"error: no lucasaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}

    env = environment()
    try:
        iterations, setups = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, attempted, failed, details = summarize(iterations, setups, args.trace, declared)
    env["loadavg_end"] = (_read("/proc/loadavg") or "").strip()
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "environment": env, **details}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
