"""One benchmark iteration in a fresh interpreter.

Times the import of lucasaps and lucasaps.cli (set-up), runs every case of
one workload in the seed's order, gates the outputs against the pinned
digests and prints one JSON line.  With --trace 1 the layer wrappers are
installed after set-up and the line also carries per-layer metrics.

While the cases run it also times a fixed reference loop every CAL_EVERY_S,
so run.py can tell how fast the machine ran while the cases did.

    python3 perfbench/child.py --workload catalog-proof --seed 1 --trace 0
    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --workload catalog-proof --pin   # rewrite the pins
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_t0 = time.perf_counter()
import lucasaps  # noqa: E402
import lucasaps.cli  # noqa: E402,F401
SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

PINNED_DIR = Path(__file__).resolve().parent / "pinned"
WORK_DIR = Path(__file__).resolve().parent / ".work"
CAL_EVERY_S = 0.1
SETUP_CAL_SAMPLES = 8


def reference_loop():
    """Fixed interpreter work that no change to lucasaps can speed up."""
    acc, table = 1, {}
    for i in range(40_000):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 1023] = i
    return acc


class Sampler:
    """Times the reference loop every CAL_EVERY_S from a SIGALRM handler, so
    samples fall inside long cases as well as between short ones.  clock()
    is perf_counter less the time spent in the handler, so neither case
    times nor trace spans include the samples.  Each sample is kept as
    [clock() when it started, ms]."""

    def __init__(self):
        self.cal = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - t
        self.cal.append([t - self.spent, elapsed * 1e3])
        self.spent += elapsed

    def clock(self):
        while True:  # retry if a sample landed between the two reads
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def execute(cases, clock):
    """Run cases in order; return outputs, errors, and per case id its
    start on clock (s) and its latency (ms)."""
    outputs, errors, case_start_s, case_ms = {}, {}, {}, {}
    for case in cases:
        t = clock()
        try:
            outputs[case.id] = case.run()
        except Exception as exc:  # a failing case is counted, not fatal
            errors[case.id] = f"{type(exc).__name__}: {exc}"
        case_start_s[case.id] = t
        case_ms[case.id] = (clock() - t) * 1e3
    return outputs, errors, case_start_s, case_ms


def _output_bytes(outputs):
    return sum(len(out.get("stdout", "").encode()) + len(out.get("csv", "").encode())
               for out in outputs.values() if isinstance(out, dict))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        sampler = Sampler()
        for _ in range(SETUP_CAL_SAMPLES):
            sampler._tick(None, None)
        print(json.dumps({"setup_s": SETUP_S, "cal": sampler.cal}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    WORK_DIR.mkdir(exist_ok=True)
    cases = workloads.build(args.workload, args.seed, WORK_DIR)
    sampler = Sampler()
    tracer = None
    if args.trace:
        tracer = Tracer(clock=sampler.clock)
        tracer.install()

    with sampler:
        outputs, errors, case_start_s, case_ms = execute(cases, sampler.clock)

    digests = {cid: workloads.digest(out) for cid, out in outputs.items()}
    pin_path = PINNED_DIR / f"{args.workload}.json"
    if args.pin:
        if errors:
            raise SystemExit(f"refusing to pin: failed cases {sorted(errors)}")
        doc = {"workload": args.workload, "digest": workloads.workload_digest(digests),
               "cases": dict(sorted(digests.items()))}
        pin_path.write_text(json.dumps(doc, indent=1) + "\n")
    pinned = json.loads(pin_path.read_text())["cases"] if pin_path.exists() else {}
    failed = workloads.gate(args.workload, outputs, errors, pinned)

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "setup_s": SETUP_S,
        "wall_s": sum(case_ms.values()) / 1e3,
        "case_start_s": case_start_s,
        "case_ms": case_ms,
        "cal": sampler.cal,
        "attempted": len(cases),
        "failed_ids": sorted(failed),
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "workload_digest": workloads.workload_digest(digests),
    }
    if tracer is not None:
        if "cli.main" in tracer.installed:
            tracer.counters["cli.output_bytes"] = _output_bytes(outputs)
        result["layers"] = tracer.metrics()
        result["installed"] = tracer.installed
        result["absent"] = tracer.absent
        result["broken_observers"] = sorted(tracer.broken_observers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
