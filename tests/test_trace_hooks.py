"""The benchmark's trace hooks (perfbench/spans.py) still attach.

They look each traced name up where its callers do, and the roadmap-fold
tool calls ``_evaluate_fold`` with seven positional arguments; a rename
or a new parameter would break ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from trustcf import build_profiles, evaluation, make_config, split_folds

from conftest import random_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_spans_install_trace_a_fold_and_restore(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    d = random_dataset(np.random.default_rng(67))
    plan = split_folds(d, 3, 17)
    profiles = build_profiles(d)
    original = evaluation._evaluate_fold
    with spans.installed(spans.Tracer(tmp_path)) as tracer:
        from trustcf.evaluation import _evaluate_fold

        # as perfbench/tools.py roadmap-fold calls it
        _evaluate_fold(d, profiles, [make_config("MTR", 0.1)], plan, 0, 10, 4.0)
    assert tracer.count["evaluation.fold"] == 1
    assert tracer.count["recommender.model_init"] == 1
    assert evaluation._evaluate_fold is original
