"""Benchmark of padic-dispersion: one workload, one seed, one measured run.

    python3 bench/run.py --workload expsum-study --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from `src/`.  The
run builds the workload's operations from the seed, runs one unmeasured
warm-up round whose outputs are checked against independent computations,
then alternates measured rounds at threads=1 and threads=2 until
`--seconds` have passed and each setting has at least MIN_ROUNDS rounds.
Every later output must equal the checked warm-up output.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with --trace 0, the
per-layer metrics of BENCHMARK.json with --trace 1).  Times are calibrated
against a fixed kernel run next to each call (see `Calibration`).  Sample
counts, uncalibrated times and the reasons for any failed operation go to
stderr; the spans of a traced run are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# The library's numpy calls may use BLAS; keep the process at the 2 threads
# the thread-count setting describes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 4  # per thread setting: 4 rounds of >= 10 operations give >= 40 latency samples
SETUP_REPEATS = 5
WORKLOADS = ("expsum-study", "surface-wave", "fourier-roundtrip")


class Calibration:
    """A fixed piece of work apart from the library, timed next to every
    measured call.

    On a shared 2-core host speed drifts by up to +-25% within a minute
    (other tenants use the same cores), and every operation drifts with
    it.  Each measured time t is therefore reported as t * REFERENCE_S / k,
    with k the kernel's time around that call: seconds on a machine where
    the kernel takes REFERENCE_S.  The raw times go to stderr.
    """

    REFERENCE_S = 0.010

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._ints = rng.integers(0, 1 << 16, 1 << 18)
        self._signal = rng.random(1 << 14)

    def time_kernel(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        total, counts = 0, {}
        for i in range(20000):  # interpreter work: integers and dicts
            total += i * i % 7
            counts[i % 97] = counts.get(i % 97, 0) + 1
        sum(Fraction(1, k) for k in range(1, 300))
        np.bincount(self._ints, minlength=1 << 16)  # numpy work
        np.fft.rfft(self._signal)
        np.sort(self._ints)
        return time.perf_counter() - t0


@dataclass
class Round:
    wall: float  # calibrated, like cpu and latencies
    cpu: float
    latencies: list[float]
    raw_wall: float
    outputs: list = field(repr=False)


def run_round(workload, threads: int, calib: Calibration) -> Round:
    """Run every operation once; only the calls themselves are timed."""
    latencies, raw_wall, cpu, outputs = [], 0.0, 0.0, []
    k_prev = calib.time_kernel()
    for op in workload.ops:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out, err = op.run(threads), None
        except Exception as ex:  # a refusal or a crash fails the operation
            out, err = None, f"{type(ex).__name__}: {ex}"
        wall, op_cpu = time.perf_counter() - t0, time.process_time() - c0
        k_next = calib.time_kernel()
        scale = calib.REFERENCE_S / ((k_prev + k_next) / 2)
        latencies.append(wall * scale)
        raw_wall += wall
        cpu += op_cpu * scale
        outputs.append((out, err))
        k_prev = k_next
    return Round(sum(latencies), cpu, latencies, raw_wall, outputs)


class Verdicts:
    """Checks the warm-up outputs; later outputs must equal them."""

    def __init__(self, workload):
        self.ops = workload.ops
        self.refs: list = []
        self.reasons: list[str | None] = []
        self.correct = True
        self.failed = 0
        self.attempted = 0
        self.seen: set[str] = set()

    def warm_up(self, rnd: Round):
        for op, (out, err) in zip(self.ops, rnd.outputs):
            if err is None:
                try:
                    err = op.check(out)
                except Exception as ex:  # a malformed output fails its check
                    err = f"check raised {type(ex).__name__}: {ex}"
            self.refs.append(out)
            self.reasons.append(err)
            self._note(op, err)

    def measured(self, rnd: Round):
        for i, (op, (out, err)) in enumerate(zip(self.ops, rnd.outputs)):
            if err is None:
                err = self.reasons[i] if out == self.refs[i] else "output differs from the warm-up run"
            self.attempted += 1
            if err is not None:
                self.failed += 1
            self._note(op, err)

    def _note(self, op, err):
        if err is None:
            return
        if not op.known_fault:
            self.correct = False
        if op.name not in self.seen:
            self.seen.add(op.name)
            kind = "known fault" if op.known_fault else "FAILED"
            print(f"{kind}: {op.name}: {err}", file=sys.stderr)


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Imports plus input generation, each in a fresh interpreter, calibrated
    there with the kernel."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def end_to_end(workload, verdicts: Verdicts, calib: Calibration, seconds: float,
               setup: list[float]) -> dict:
    t1: list[Round] = []
    t2: list[Round] = []
    start = time.perf_counter()
    while len(t1) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        t1.append(run_round(workload, 1, calib))
        verdicts.measured(t1[-1])
        t2.append(run_round(workload, 2, calib))
        verdicts.measured(t2[-1])
    latencies = [x for r in t1 for x in r.latencies]
    k = len(workload.ops)
    # fixed so that the smallest run still has >= 10 operations beyond it;
    # every round has the same mix, so the value does not drift with the
    # number of rounds a run fits in
    q_tail = 1 - 10 / (k * MIN_ROUNDS)
    print(f"{workload.name}: {len(t1)} + {len(t2)} rounds of {k} operations; "
          f"op_p50_s and op_tail_s (p{100 * q_tail:.1f}) over {len(latencies)} operations at "
          f"threads=1; setup_s median of {len(setup)}; uncalibrated wall_s "
          f"{statistics.median(r.raw_wall for r in t1):.4f}, wall_t2_s "
          f"{statistics.median(r.raw_wall for r in t2):.4f}", file=sys.stderr)
    for i, op in enumerate(workload.ops):
        print(f"  {op.name}: median {statistics.median(r.latencies[i] for r in t1):.4f} s",
              file=sys.stderr)
    return {
        "wall_s": (statistics.median(r.wall for r in t1), "s"),
        "cpu_s": (statistics.median(r.cpu for r in t1), "s"),
        "wall_t2_s": (statistics.median(r.wall for r in t2), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (quantile(latencies, q_tail), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, verdicts: Verdicts, calib: Calibration, seconds: float,
              seed: int) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    plain: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    try:
        while len(traced) < 2 or time.perf_counter() - start < seconds:
            plain.append(run_round(workload, 1, calib))
            verdicts.measured(plain[-1])
            tracer.active = True
            try:
                traced.append(run_round(workload, 1, calib))
            finally:
                tracer.active = False
            verdicts.measured(traced[-1])
    finally:
        tracer.uninstall()
    metrics = {name: (value, _layer_unit(name))
               for name, value in tracer.layer_metrics(len(traced)).items()}
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name,
        "traced_rounds": len(traced),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": par}
                  for i, n, s, e, par in tracer.spans],
    }))
    print(f"{workload.name}: {len(traced)} traced and {len(plain)} untraced rounds at threads=1; "
          f"per-layer values are per traced round; spans in {path}", file=sys.stderr)
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports plus input generation and print the seconds")
    args = parser.parse_args(argv)
    if not (SRC / "padic_dispersion" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'padic_dispersion'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        t0 = time.perf_counter()
        import workloads

        workloads.build(args.workload, args.seed)
        setup = time.perf_counter() - t0
        calib = Calibration()
        kernel = statistics.median(calib.time_kernel() for _ in range(3))
        print(setup * calib.REFERENCE_S / kernel)
        return 0
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    import workloads

    workload = workloads.build(args.workload, args.seed)
    calib = Calibration()
    verdicts = Verdicts(workload)
    verdicts.warm_up(run_round(workload, 1, calib))
    if args.trace:
        metrics = per_layer(workload, verdicts, calib, args.seconds, args.seed)
    else:
        metrics = end_to_end(workload, verdicts, calib, args.seconds, setup)
    print(json.dumps({
        "correct": verdicts.correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
