"""One measured run of one workload, in a process of its own.

``run.py`` prepares the inputs and starts this script, so the peak RSS
it reports covers the measured calls (and their fork workers) and not
the corpus generator.  The last line of standard output is the result
object described in README.md.

Untraced (``--trace 0``): set-up and operation alternate, each checked,
until ``--seconds`` have passed and at least ``MIN_OPS`` operations ran;
set-up repeats alone until it has ``MIN_SETUPS`` samples.  The workload's
reference kernel (``calibrate.py``) runs before the first timed call and
after every timed call but the eval workloads' set-up, which takes a
fraction of the kernel's time.  Each wall time is divided by the mean of
the kernel times on either side of it (that set-up's by the one before
it), and the medians of these quotients, in reference seconds, are
reported.

Traced (``--trace 1``): untraced and traced iterations alternate for
``--seconds``; every per-layer metric is the median over the traced
iterations, and ``trace.overhead_s`` is the traced minus the untraced
median operation time, both in reference seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, installed  # noqa: E402

MIN_OPS = 3
MIN_SETUPS = 20
MIB = 1024 ** 2


class Run:
    """Samples, attempts and failures of one run."""

    def __init__(self, workload, seed: int, prep: dict):
        self.w = workload
        self.seed = seed
        self.prep = prep
        self.expected = workloads.load_expected()
        self.attempted = 0
        self.failed = 0
        # wall times, each with the reference kernel's time around it
        self.setup_s: list[float] = []
        self.setup_kernel_s: list[float] = []
        self.op_s: list[float] = []
        self.op_kernel_s: list[float] = []
        self.units = 0
        self.digest = None
        self._kernel_before: float | None = None

    def timed(self, fn, *args, kernel_after: bool = True):
        """``fn(*args)``, its wall time and the mean kernel time on either side.

        Without ``kernel_after`` (for a call far shorter than the kernel)
        the call gets the kernel time just before it, which the next call
        shares.
        """
        if self._kernel_before is None:
            self._kernel_before = calibrate.kernel_s(self.w.kernel, self.w.workers)
        result, wall_s = timed(fn, *args)
        if not kernel_after:
            return result, (wall_s, self._kernel_before)
        after = calibrate.kernel_s(self.w.kernel, self.w.workers)
        kernel_s = (self._kernel_before + after) / 2
        self._kernel_before = after
        return result, (wall_s, kernel_s)

    def iteration(self):
        """One checked set-up and operation.

        Returns the (wall, kernel) times of both, or None if one raised.

        A wrong output counts as a failure but keeps its timings.
        """
        self.attempted += 1
        try:
            timings, problems = self._iterate()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            self.failed += 1
            print(f"iteration {self.attempted} failed its check: {'; '.join(problems)}",
                  file=sys.stderr)
        return timings

    def _iterate(self):
        w, prep = self.w, self.prep
        if w.is_eval:
            (d, plan), setup_s = self.timed(workloads.setup, prep, kernel_after=False)
            report, op_s = self.timed(workloads.evaluate, w, d, plan)
            problems = workloads.check_report(w, self.seed, report, d, plan, self.expected)
            digest = workloads.report_digest(report)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("report.tsv differs from this run's first report")
            self.units = workloads.predictions(report)
            return (setup_s, op_s), problems
        workloads.clear_output(prep)
        filtered, op_s = self.timed(workloads.ingest, prep)
        (d, _), setup_s = self.timed(workloads.setup, prep)
        self.units = prep["raw_lines"]
        return (setup_s, op_s), workloads.check_roundtrip(prep, filtered, d)

    def record(self, timings) -> None:
        (setup_s, setup_kernel_s), (op_s, op_kernel_s) = timings
        self.setup_s.append(setup_s)
        self.setup_kernel_s.append(setup_kernel_s)
        self.op_s.append(op_s)
        self.op_kernel_s.append(op_kernel_s)

    def extra_setups(self) -> None:
        while len(self.setup_s) < MIN_SETUPS:
            setup_s, kernel_s = self.timed(workloads.setup, self.prep)[1]
            self.setup_s.append(setup_s)
            self.setup_kernel_s.append(kernel_s)


def timed(fn, *args):
    """``fn(*args)`` and its wall time; earlier garbage is collected first."""
    gc.collect()
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def reference_s(wall_s: list[float], kernel_s: list[float]) -> float:
    """Median wall time in reference seconds (see calibrate.py)."""
    return statistics.median(w / k for w, k in zip(wall_s, kernel_s)) * calibrate.REFERENCE_S


def median(values: list):
    """The median; for counts, the lower middle value, so it stays a count."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def peak_rss_mib() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / MIB


def dir_bytes(path: str) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _union_length(intervals, lo: float, hi: float) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_metrics(tracer: Tracer, w, units: int, canonical_bytes: int) -> dict:
    """Per-layer numbers of one traced iteration (one set-up, one operation)."""
    total = lambda name: tracer.total.get(name, 0.0)  # noqa: E731
    count = lambda name: tracer.count.get(name, 0)  # noqa: E731
    counter = lambda name: tracer.counters.get(name, 0)  # noqa: E731

    def ratio(num, den):
        return num / den if den else 0.0

    predict_us = np.asarray(tracer.samples["recommender.predict"]) * 1e6
    folds = tracer.samples["evaluation.fold"]
    fold_intervals = tracer.intervals["evaluation.fold"]
    eval_s, self_s, idle = 0.0, 0.0, 0.0
    if tracer.intervals["evaluation.run_experiment"]:
        lo, hi = tracer.intervals["evaluation.run_experiment"][0]
        eval_s = hi - lo
        children = tracer.intervals["trust.build_profiles"] + fold_intervals
        self_s = eval_s - _union_length(children, lo, hi)
        idle = 1.0 - sum(folds) / (w.workers * eval_s)
    predictions = counter("model") + counter("fallback")
    return {
        "recommender.pearson_calls": count("recommender.pearson"),
        "recommender.pearson_s": total("recommender.pearson"),
        "recommender.pearson_reuse_ratio":
            1.0 - ratio(count("recommender.pearson"), counter("pearson_requested"))
            if counter("pearson_requested") else 0.0,
        "recommender.predict_calls": count("recommender.predict"),
        "recommender.predict_self_s": tracer.self_time.get("recommender.predict", 0.0),
        "recommender.predict_us_p50":
            float(np.percentile(predict_us, 50)) if predict_us.size else 0.0,
        "recommender.predict_us_p99":
            float(np.percentile(predict_us, 99)) if predict_us.size else 0.0,
        "recommender.candidates_scored": counter("candidates"),
        "recommender.model_ratio": ratio(counter("model"), predictions),
        "recommender.model_init_s": total("recommender.model_init"),
        "social.jaccard_calls": count("social.jaccard"),
        "social.jaccard_s": total("social.jaccard"),
        "social.graph_build_s": total("social.graph_build"),
        "trust.build_profiles_s": total("trust.build_profiles"),
        "dataset.rating_store_s": total("dataset.rating_store"),
        "dataset.rating_store_builds": count("dataset.rating_store"),
        "dataset.make_dataset_s": total("dataset.make_dataset"),
        "dataset.apply_filters_s": total("dataset.apply_filters"),
        "canonical.save_s": total("canonical.save"),
        "canonical.load_s": total("canonical.load"),
        "canonical.bytes": canonical_bytes,
        "canonical.load_mib_per_s": ratio(canonical_bytes / MIB, total("canonical.load")),
        "ingest.yelp_s": total("ingest.yelp"),
        "ingest.records_per_s": ratio(units, total("ingest.yelp")),
        "evaluation.fold_s_p50": float(np.median(folds)) if folds else 0.0,
        "evaluation.fold_s_max": max(folds) if folds else 0.0,
        "evaluation.metrics_s": total("evaluation.metrics"),
        "evaluation.self_s": self_s,
        "evaluation.worker_idle_ratio": idle,
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--prep", required=True, help="inputs written by run.py (JSON)")
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    prep = json.loads(Path(args.prep).read_text(encoding="utf-8"))
    run = Run(w, args.seed, prep)
    tracer = Tracer(Path(args.prep).parent)
    traced_op_s: list[float] = []
    traced_op_kernel_s: list[float] = []
    per_layer: list[dict] = []
    run.iteration()  # warm-up: checked, not recorded
    deadline = perf_counter() + args.seconds

    while True:
        timings = run.iteration()
        if timings is not None:
            run.record(timings)
        if args.trace:
            with installed(tracer):
                tracer.reset()
                timings = run.iteration()
                tracer.merge_worker_files()
            if timings is not None:
                traced_op_s.append(timings[1][0])
                traced_op_kernel_s.append(timings[1][1])
                per_layer.append(layer_metrics(
                    tracer, w, run.units, dir_bytes(prep["canonical"])))
        enough = len(run.op_s) >= (1 if args.trace else MIN_OPS)
        if perf_counter() >= deadline and (enough or run.attempted >= 2 * MIN_OPS):
            break

    if not run.op_s or (args.trace and not per_layer):
        print("every iteration raised", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: median([m[name] for m in per_layer]) for name in per_layer[0]}
        metrics["trace.overhead_s"] = (reference_s(traced_op_s, traced_op_kernel_s)
                                       - reference_s(run.op_s, run.op_kernel_s))
    else:
        run.extra_setups()
        op_s = reference_s(run.op_s, run.op_kernel_s)
        metrics = {
            "setup_s": reference_s(run.setup_s, run.setup_kernel_s),
            "op_s": op_s,
            "records_per_s": run.units / op_s,
            "peak_rss_mib": peak_rss_mib(),
        }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    print("env:", json.dumps(environment(), sort_keys=True))
    print("samples:", json.dumps({
        "wall_setup_s": run.setup_s, "setup_kernel_s": run.setup_kernel_s,
        "wall_op_s": run.op_s, "op_kernel_s": run.op_kernel_s,
        "traced_wall_op_s": traced_op_s, "traced_op_kernel_s": traced_op_kernel_s}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
