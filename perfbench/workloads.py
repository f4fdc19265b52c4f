"""The four benchmark workloads: inputs, the timed calls and output checks.

Every workload is a closed loop in one process: one set-up or operation
at a time, each started when the previous one has returned.

* The eval workloads (``eval-mtr``, ``eval-social``, ``sweep-beta``) share
  one corpus, the acceptance corpus at ``EVAL_SCALE``, saved as a
  canonical directory.  Set-up is what ``trustcf eval`` does before fold
  1 (``canonical_load`` plus ``split_folds``); the operation is
  ``run_experiment`` with the spec defaults (10 folds, seed 17, k 10,
  tau 4).
* ``data-roundtrip`` writes the acceptance corpus at ``ROUNDTRIP_SCALE``
  as a Yelp dump.  The operation is what ``trustcf ingest`` does
  (``ingest_yelp``, ``apply_filters``, ``canonical_save``); set-up is the
  reload of the saved directory, as for the eval workloads.

The calls go through the ``trustcf`` package attributes so the tracer
can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import trustcf
from corpus import (
    CLOSURE,
    expected_filtered,
    scaled,
    synth_corpus,
    write_yelp_dump,
)

EVAL_SCALE = 0.0025
ROUNDTRIP_SCALE = 0.025
FOLDS, FOLD_SEED, K, TAU = 10, 17, 10, 4.0
MIN_RATINGS = 20
BETA_GRID = tuple(round(0.1 * n, 1) for n in range(11))
YELP_FILES = ("business.json", "review.json", "user.json", "tip.json")

EXPECTED_FILE = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[tuple[str, float], ...] = ()
    workers: int = 1
    kernel: str = "arrays"  # the reference kernel of calibrate.py timed beside it

    @property
    def is_eval(self) -> bool:
        return bool(self.configs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval-mtr", (("U2UCF", 0.1), ("MTR", 0.1))),
        Workload("eval-social", (("U2USocial", 0.1), ("MTRTrust2", 0.1))),
        Workload(
            "sweep-beta",
            (("U2UCF", 0.1),) + tuple(("MTR", b) for b in BETA_GRID),
            workers=2,
        ),
        Workload("data-roundtrip", kernel="records"),
    )
}


# -- inputs (untimed) ---------------------------------------------------------

def prepare(w: Workload, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if w.is_eval:
        d = synth_corpus(*scaled(EVAL_SCALE), seed=seed)
        trustcf.canonical_save(d, workdir / "canonical")
        return {"canonical": str(workdir / "canonical")}
    d = synth_corpus(*scaled(ROUNDTRIP_SCALE), seed=seed)
    lines = write_yelp_dump(d, workdir / "raw")
    return {
        "raw": str(workdir / "raw"),
        "canonical": str(workdir / "canonical"),
        "raw_lines": lines,
        "filtered": expected_filtered(d, MIN_RATINGS, CLOSURE),
    }


# -- timed calls --------------------------------------------------------------

def setup(prep: dict):
    """The wait before fold 1: load the canonical directory and plan folds."""
    d = trustcf.canonical_load(prep["canonical"])
    return d, trustcf.split_folds(d, FOLDS, FOLD_SEED)


def evaluate(w: Workload, d, plan):
    configs = [trustcf.make_config(name, beta) for name, beta in w.configs]
    return trustcf.run_experiment(d, configs, plan, k=K, tau=TAU, workers=w.workers)


def clear_output(prep: dict) -> None:
    """Remove the previous ingest's output so every save starts alike."""
    shutil.rmtree(prep["canonical"], ignore_errors=True)


def ingest(prep: dict):
    raw = Path(prep["raw"])
    d = trustcf.ingest_yelp(*(raw / name for name in YELP_FILES))
    filtered = trustcf.apply_filters(d, MIN_RATINGS, CLOSURE)
    trustcf.canonical_save(filtered, prep["canonical"])
    return filtered


# -- output checks (untimed) --------------------------------------------------

def report_digest(report) -> str:
    return hashlib.sha256(report.to_tsv().encode("utf-8")).hexdigest()


def predictions(report) -> int:
    return sum(r.model_predictions + r.fallback_predictions for r in report.rows)


def expected_predictions(d, plan) -> int:
    """Held-out ratings whose user keeps a training rating, over all folds."""
    users = d.ratings.user_idx
    total = 0
    for fold in range(plan.num_folds):
        test = plan.assignment == fold
        trained = np.bincount(users[~test], minlength=d.num_users) > 0
        total += int(trained[users[test]].sum())
    return total


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


def check_report(w: Workload, seed: int, report, d, plan, expected: dict) -> list[str]:
    """Problems with one evaluation report; empty when it is correct.

    Every seed gets the structural checks.  Seeds recorded in
    ``expected.json`` must also reproduce the recorded ``report.tsv``
    digest and per-row model/fallback counts exactly.
    """
    problems = []
    if [(r.config, r.beta) for r in report.rows] != [
        (c.name, c.beta) for c in (trustcf.make_config(n, b) for n, b in w.configs)
    ]:
        problems.append("report rows do not match the configs")
    want = expected_predictions(d, plan)
    for r in report.rows:
        if r.model_predictions + r.fallback_predictions != want:
            problems.append(f"{r.config}@{r.beta}: predictions "
                            f"{r.model_predictions + r.fallback_predictions} != {want}")
        if not (math.isfinite(r.rmse) and 0.0 < r.rmse <= 4.0):
            problems.append(f"{r.config}@{r.beta}: rmse {r.rmse} out of range")
        if not 0.0 <= r.user_coverage <= 1.0:
            problems.append(f"{r.config}@{r.beta}: coverage {r.user_coverage} out of range")
    recorded = expected.get(w.name, {}).get(str(seed))
    if recorded is not None:
        if report_digest(report) != recorded["report_sha256"]:
            problems.append("report.tsv digest differs from the recorded one")
        counts = [[r.model_predictions, r.fallback_predictions] for r in report.rows]
        if counts != recorded["counts"]:
            problems.append(f"model/fallback counts {counts} != {recorded['counts']}")
    return problems


def check_roundtrip(prep: dict, filtered, reloaded) -> list[str]:
    """Problems with one ingest and reload; empty when both are correct."""
    problems = []
    got = {
        "users": reloaded.num_users,
        "items": reloaded.num_items,
        "ratings": len(reloaded.ratings),
        "rating_sum": float(reloaded.ratings.value.sum()),
        "friend_edges": reloaded.social.num_edges(),
    }
    if got != prep["filtered"]:
        problems.append(f"reloaded dataset {got} != expected {prep['filtered']}")
    if not trustcf.datasets_equal(reloaded, filtered):
        problems.append("reloaded dataset differs from the one saved")
    return problems
