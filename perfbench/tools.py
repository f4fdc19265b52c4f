"""Maintenance commands for the benchmark; none of them is part of a run.

    python3 perfbench/tools.py spread [--workloads A,B] [--seeds 1-10] [--seconds S]
                                      [--trace] [--out FILE]
        Run the benchmark once per seed and workload, then print each
        metric's median, quartiles and quartile spread as a share of the
        median, next to its bound.
    python3 perfbench/tools.py record-expected [--seeds 0-31]
        Record each eval workload's report.tsv digest and per-row
        model/fallback counts in expected.json, for the given seeds and
        the held-out seed.
    python3 perfbench/tools.py check-corpus
        Check that corpus.synth_corpus builds the same datasets as the
        acceptance suite's generator.
    python3 perfbench/tools.py roadmap-fold
        Time fold 0 of the 10%-scale acceptance corpus for each of MTR,
        U2UCF, MTRTrust2 and U2USocial, the figures the ROADMAP quotes.

Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import trustcf  # noqa: E402
import workloads  # noqa: E402
from corpus import scaled, synth_corpus  # noqa: E402

# Kept out of tuning; a later performance claim is confirmed on it.
HELD_OUT_SEED = 7919


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for name in names:
        values: dict[str, list[float]] = {}
        samples: list[dict] = []
        for seed in _seeds(args.seeds):
            started = perf_counter()
            lines = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "1" if args.trace else "0"],
                capture_output=True, text=True, cwd=ROOT, check=True,
            ).stdout.splitlines()
            result = json.loads(lines[-1])
            samples.append(json.loads(lines[-2].split(":", 1)[1]))
            if not result["correct"]:
                print(f"{name} seed {seed}: INCORRECT {result}", flush=True)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: {perf_counter() - started:.1f}s wall "
                  f"{result['attempted']} attempted {result['failed']} failed", flush=True)
        results[name] = {"metrics": values, "samples": samples}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            note = f"  bound {bound}  spread/bound {share / bound:.2f}" if bound else ""
            print(f"  {name:15s} {metric:34s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {share:.4f}{note}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")


def record_expected(args) -> None:
    expected = workloads.load_expected() if workloads.EXPECTED_FILE.exists() else {}
    seeds = _seeds(args.seeds) + [HELD_OUT_SEED]
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for seed in seeds:
            for w in workloads.WORKLOADS.values():
                if not w.is_eval:
                    continue
                prep = workloads.prepare(w, seed, Path(tmp) / f"{w.name}-{seed}")
                d, plan = workloads.setup(prep)
                report = workloads.evaluate(w, d, plan)
                problems = workloads.check_report(w, seed, report, d, plan, {})
                if problems:
                    raise SystemExit(f"{w.name} seed {seed}: {problems}")
                expected.setdefault(w.name, {})[str(seed)] = {
                    "report_sha256": workloads.report_digest(report),
                    "counts": [[r.model_predictions, r.fallback_predictions]
                               for r in report.rows],
                }
            print(f"seed {seed} recorded", flush=True)
    workloads.EXPECTED_FILE.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def check_corpus(args) -> None:
    sys.path[:0] = [str(ROOT / "tests")]
    from test_acceptance import synth_corpus as acceptance_corpus

    cases = [(scaled(workloads.EVAL_SCALE), 1), (scaled(workloads.EVAL_SCALE), HELD_OUT_SEED),
             (scaled(workloads.ROUNDTRIP_SCALE), 2), (scaled(0.1), 705)]
    for dims, seed in cases:
        same = trustcf.datasets_equal(synth_corpus(*dims, seed=seed),
                                      acceptance_corpus(*dims, seed=seed))
        print(f"synth_corpus{dims + (seed,)}: {'same' if same else 'DIFFERENT'}")
        if not same:
            raise SystemExit(1)


def roadmap_fold(args) -> None:
    from trustcf.evaluation import _evaluate_fold

    d = synth_corpus(*scaled(0.1), seed=705)
    plan = trustcf.split_folds(d, workloads.FOLDS, workloads.FOLD_SEED)
    profiles = trustcf.build_profiles(d)
    for name in ("MTR", "U2UCF", "MTRTrust2", "U2USocial"):
        config = trustcf.make_config(name, 0.1)
        started = perf_counter()
        _evaluate_fold(d, profiles, [config], plan, 0, workloads.K, workloads.TAU)
        print(f"{name}: fold 0 {perf_counter() - started:.2f}s", flush=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workloads", default="")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=spread)
    p = sub.add_parser("record-expected")
    p.add_argument("--seeds", default="0-31")
    p.set_defaults(func=record_expected)
    sub.add_parser("check-corpus").set_defaults(func=check_corpus)
    sub.add_parser("roadmap-fold").set_defaults(func=roadmap_fold)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
