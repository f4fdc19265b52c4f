"""Spans around calls into the trustcf modules, recorded from outside them.

:func:`installed` swaps each traced function for a wrapper, at the place
its caller looks it up (a module global, a class attribute or a package
attribute), and restores the original on exit.  Nothing under ``src/``
knows it is being traced.

A :class:`Tracer` keeps aggregates in memory: per span name a call
count, total and self time (duration minus the time of its direct child
spans), plus per-call durations and start/end times where a metric needs
them.  Fork-pool workers inherit the wrappers; each worker resets its
copy of the tracer at fork and writes its spans to a file after every
fold, which the parent merges with :meth:`Tracer.merge_worker_files`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from pathlib import Path
from time import perf_counter

import trustcf
from trustcf import canonical, evaluation, ingest, recommender, social
from trustcf.dataset import RatingStore
from trustcf.recommender import PredictionKind, TrainedModel
from trustcf.social import SocialGraph

# Span names whose per-call durations are kept (percentiles).
SAMPLED = frozenset({"recommender.predict", "evaluation.fold"})
# Span names whose (start, end) intervals are kept (overlap, idle time).
INTERVALS = frozenset({"evaluation.run_experiment", "trust.build_profiles",
                       "evaluation.fold"})


class Tracer:
    """Span aggregates and counters of one process."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self.in_worker = False
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self) -> None:
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {n: [] for n in SAMPLED}
        self.intervals: dict[str, list[tuple[float, float]]] = {n: [] for n in INTERVALS}
        self.counters: dict[str, int] = {}
        self._child_time: list[float] = []

    def _after_fork(self) -> None:
        self.in_worker = True
        self.reset()

    def add(self, counter: str, n: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._child_time
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                self.count[name] = self.count.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + duration
                self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
                if name in SAMPLED:
                    self.samples[name].append(duration)
                if name in INTERVALS:
                    self.intervals[name].append((start, end))

        return wrapper

    # -- fork-pool workers ----------------------------------------------------

    def spill(self) -> None:
        """Write this worker's spans to a file of its own and start afresh."""
        state = {
            "count": self.count, "total": self.total, "self_time": self.self_time,
            "samples": self.samples, "intervals": self.intervals,
            "counters": self.counters,
        }
        path = self.spill_dir / f"worker-{os.getpid()}-{perf_counter()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state), encoding="utf-8")
        tmp.rename(path)
        self.reset()

    def merge_worker_files(self) -> int:
        """Fold every spilled worker file into this tracer; return how many."""
        files = sorted(self.spill_dir.glob("worker-*.json"))
        for path in files:
            state = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            for key in ("count", "total", "self_time", "counters"):
                mine = getattr(self, key)
                for name, value in state[key].items():
                    mine[name] = mine.get(name, 0) + value
            for name, values in state["samples"].items():
                self.samples[name].extend(values)
            for name, pairs in state["intervals"].items():
                self.intervals[name].extend(tuple(p) for p in pairs)
        return len(files)


def _traced_predict(tracer: Tracer, predict):
    timed = tracer.timed("recommender.predict", predict)

    @functools.wraps(predict)
    def wrapper(self, u, i, cache=None):
        raters = self.train.raters_of(i)[0]
        candidates = int(raters.size) - int((raters == u).any())
        tracer.add("candidates", candidates)
        if self.config.similarity_mode == "pearson":
            tracer.add("pearson_requested", candidates)
        result = timed(self, u, i, cache)
        tracer.add("model" if result.kind is PredictionKind.MODEL else "fallback")
        return result

    return wrapper


def _traced_fold(tracer: Tracer, fold_fn):
    timed = tracer.timed("evaluation.fold", fold_fn)

    @functools.wraps(fold_fn)
    def wrapper(*args, **kwargs):
        try:
            return timed(*args, **kwargs)
        finally:
            if tracer.in_worker:
                tracer.spill()

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every layer boundary the workloads cross, then restore."""
    # (owner, attribute, span name); owners are where callers look names up
    plain = [
        (recommender, "pearson", "recommender.pearson"),
        (recommender, "_jaccard", "social.jaccard"),
        (social, "jaccard", "social.jaccard"),
        (TrainedModel, "__init__", "recommender.model_init"),
        (SocialGraph, "__init__", "social.graph_build"),
        (evaluation, "build_profiles", "trust.build_profiles"),
        (RatingStore, "__init__", "dataset.rating_store"),
        (canonical, "make_dataset", "dataset.make_dataset"),
        (ingest, "make_dataset", "dataset.make_dataset"),
        (evaluation, "ranking_metrics", "evaluation.metrics"),
        (evaluation, "intra_diversity", "evaluation.metrics"),
        (trustcf, "apply_filters", "dataset.apply_filters"),
        (trustcf, "canonical_save", "canonical.save"),
        (trustcf, "canonical_load", "canonical.load"),
        (trustcf, "ingest_yelp", "ingest.yelp"),
        (trustcf, "run_experiment", "evaluation.run_experiment"),
    ]
    saved = []
    try:
        for owner, attr, name in plain:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.timed(name, original))
        original = TrainedModel.__dict__["predict"]
        saved.append((TrainedModel, "predict", original))
        TrainedModel.predict = _traced_predict(tracer, original)
        # the one private name: the per-fold span needs the fold function
        original = evaluation.__dict__["_evaluate_fold"]
        saved.append((evaluation, "_evaluate_fold", original))
        evaluation._evaluate_fold = _traced_fold(tracer, original)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
