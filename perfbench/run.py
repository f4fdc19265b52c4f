"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the workload's inputs from
``--seed`` under ``.perfbench_work/`` (untimed), measures them in a
child process (``measure.py``), removes the inputs and prints the
child's output, whose last line is the result object.  Exits non-zero,
printing no result, when the ``trustcf`` sources under ``src/`` are
missing or the measurement fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

# one run must end within 180 s, input generation included
DEADLINE_S = 170.0


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import trustcf from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")

    workdir = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        prep = workloads.prepare(w, args.seed, workdir)
        (workdir / "prep.json").write_text(json.dumps(prep), encoding="utf-8")
        child = subprocess.run(
            [sys.executable, str(HERE / "measure.py"),
             "--workload", w.name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--prep", str(workdir / "prep.json")],
            stdout=subprocess.PIPE, text=True,
            timeout=max(DEADLINE_S - (perf_counter() - started), 1.0),
        )
    except subprocess.TimeoutExpired:
        print("measurement exceeded its time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's inputs are still there
    if child.returncode != 0:
        sys.stderr.write(child.stdout)
        return child.returncode
    sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
