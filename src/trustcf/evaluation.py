"""Offline cross-validated evaluation of recommender configurations.

Ratings are partitioned once into F seeded folds of near-equal size.
For each fold the remaining ratings train a model per configuration;
every held-out (user, item) pair is predicted, and each test user gets a
top-k list ranked over their own held-out items.  Error metrics pool the
fold's model-based predictions; ranking metrics are macro-averaged per
user inside the fold; fold values are then averaged unweighted.  A
metric no fold defines (RMSE and MAE of a configuration without a single
model-based prediction) is NaN in ``summary.json`` and ``-`` in
``report.tsv``.

Each test user is scored in one batch per fold: the training raters of
all of the user's held-out items are gathered once, the similarity of
the user to those candidates is computed once per similarity setting
(mode and minimum Pearson overlap) and shared by every configuration
with that setting, and each configuration then predicts all of the
user's items in one call.

Trust facets are computed on the full dataset before any split, so only
rating-derived state varies across folds.  Folds are independent and can
be evaluated in parallel worker processes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import isnan, sqrt
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import Dataset, ItemCategories, RatingStore
from .errors import EmptyInput, UnknownUser
from .recommender import InfluenceConfig, PredictionKind, TrainedModel, candidates_of
from .trust import TrustProfiles, build_profiles


@dataclass(frozen=True)
class FoldPlan:
    """Seeded assignment of each canonical rating index to one fold."""

    seed: int
    num_folds: int
    assignment: np.ndarray

    def __post_init__(self):
        self.assignment.setflags(write=False)

    def test_indices(self, fold: int) -> np.ndarray:
        if not 0 <= fold < self.num_folds:
            raise ValueError(f"fold {fold} out of range")
        return np.flatnonzero(self.assignment == fold)

    def fold_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_folds)


def fold_assignment(num_ratings: int, num_folds: int, seed: int) -> np.ndarray:
    """Balanced random fold labels: sizes differ by at most one."""
    if num_folds < 2:
        raise ValueError("need at least two folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_ratings)
    labels = np.empty(num_ratings, dtype=np.int64)
    labels[perm] = np.arange(num_ratings) % num_folds
    return labels


def split_folds(d: Dataset, num_folds: int, seed: int) -> FoldPlan:
    return FoldPlan(
        seed=seed,
        num_folds=num_folds,
        assignment=fold_assignment(len(d.ratings), num_folds, seed),
    )


@dataclass(frozen=True)
class RecItem:
    item: int
    score: float
    kind: PredictionKind


@dataclass(frozen=True)
class RecommendationList:
    """Top items for one user, best first, ties by ascending item handle."""

    user: int
    items: tuple[RecItem, ...]

    def item_handles(self) -> tuple[int, ...]:
        return tuple(entry.item for entry in self.items)


def _ranked(
    u: int, items: np.ndarray, values: np.ndarray, is_model: np.ndarray, k: int
) -> RecommendationList:
    """The k best of u's scored items: score descending, ties by ascending item."""
    order = np.lexsort((items, -values))[:k]
    return RecommendationList(
        user=u,
        items=tuple(
            RecItem(
                int(items[n]),
                float(values[n]),
                PredictionKind.MODEL if is_model[n] else PredictionKind.FALLBACK,
            )
            for n in order
        ),
    )


def top_k(
    model: TrainedModel,
    u: int,
    candidates: Iterable[int],
    k: int,
) -> RecommendationList:
    """Rank a user's candidate items by predicted rating and keep the top k."""
    if k < 1:
        raise ValueError("k must be positive")
    items = np.unique(np.fromiter((int(c) for c in candidates), dtype=np.int64))
    values, is_model = model.predict_items(u, items)
    return _ranked(u, items, values, is_model, k)


class AccuracyMetrics(NamedTuple):
    rmse: float
    mae: float


def accuracy_metrics(pairs: Sequence[tuple[float, float]]) -> AccuracyMetrics:
    """Root-mean-squared and mean-absolute error of (predicted, actual) pairs."""
    if len(pairs) == 0:
        raise EmptyInput("no predictions to score")
    arr = np.asarray(pairs, dtype=np.float64)
    err = arr[:, 0] - arr[:, 1]
    return AccuracyMetrics(
        rmse=float(np.sqrt(np.mean(err * err))),
        mae=float(np.mean(np.abs(err))),
    )


class RankingMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    mrr: float


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def ranking_metrics(
    lists: Iterable[RecommendationList],
    relevance: Mapping[int, frozenset[int] | set[int]],
    k: int,
) -> RankingMetrics:
    """Macro-averaged precision, recall, F1 and MRR at k.

    Precision and MRR average over users with non-empty lists; recall
    additionally requires a non-empty relevant set.  F1 is the harmonic
    mean of the two aggregates.
    """
    precisions: list[float] = []
    recalls: list[float] = []
    rranks: list[float] = []
    for rec in lists:
        entries = rec.items[:k]
        if not entries:
            continue
        relevant = relevance.get(rec.user, frozenset())
        hits = sum(1 for e in entries if e.item in relevant)
        precisions.append(hits / len(entries))
        if relevant:
            recalls.append(hits / len(relevant))
        rr = 0.0
        for rank, e in enumerate(entries, start=1):
            if e.item in relevant:
                rr = 1.0 / rank
                break
        rranks.append(rr)
    precision = float(np.mean(precisions)) if precisions else 0.0
    recall = float(np.mean(recalls)) if recalls else 0.0
    mrr = float(np.mean(rranks)) if rranks else 0.0
    return RankingMetrics(precision, recall, _f1(precision, recall), mrr)


def _category_cosine(a: frozenset[str], b: frozenset[str]) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / sqrt(len(a) * len(b))


def intra_diversity(rec: RecommendationList, cats: ItemCategories) -> float:
    """Average pairwise category dissimilarity inside one list.

    All ordered pairs (a, b) with a <= b over the list positions count,
    self-pairs included; an item is identical to itself, so self-pairs
    contribute 0 regardless of tagging, which caps the value at
    (k - 1) / (k + 1) for a list of length k.  Between distinct
    positions, two untagged items count as fully dissimilar.  An empty
    list scores 0.
    """
    k = len(rec.items)
    if k == 0:
        return 0.0
    handles = rec.item_handles()
    total = 0.0
    for a in range(k):
        ca = cats.of(handles[a])
        for b in range(a, k):
            if b == a:
                continue  # self-similarity is 1, contributes nothing
            total += 1.0 - _category_cosine(ca, cats.of(handles[b]))
    return total / (k * (k + 1) / 2.0)


class Coverage(NamedTuple):
    value: float
    defined: bool


def user_coverage(
    results: Mapping[int, Sequence[PredictionKind]],
    test_users: Iterable[int],
) -> Coverage:
    """Fraction of test users with at least one model-based prediction."""
    users = set(int(u) for u in test_users)
    if not users:
        return Coverage(0.0, defined=False)
    covered = sum(
        1
        for u in users
        if any(kind is PredictionKind.MODEL for kind in results.get(u, ()))
    )
    return Coverage(covered / len(users), defined=True)


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    precision: float
    recall: float
    f1: float
    rmse: float
    mae: float
    mrr: float
    diversity: float
    user_coverage: float
    test_users: int
    ranked_users: int
    recall_users: int
    model_predictions: int
    fallback_predictions: int
    skipped_users: int


@dataclass(frozen=True)
class ReportRow:
    config: str
    beta: float
    precision: float
    recall: float
    f1: float
    rmse: float
    mae: float
    mrr: float
    diversity: float
    user_coverage: float
    model_predictions: int
    fallback_predictions: int
    folds: tuple[FoldMetrics, ...]


_TSV_COLUMNS = (
    "config",
    "beta",
    "precision",
    "recall",
    "f1",
    "rmse",
    "mae",
    "mrr",
    "diversity",
    "user_coverage",
)


def format_metric(value: float) -> str:
    """A metric with six decimals, or ``-`` when it is undefined (NaN)."""
    return "-" if isnan(value) else f"{value:.6f}"


@dataclass(frozen=True)
class EvaluationReport:
    provenance: str
    num_folds: int
    seed: int
    k: int
    tau: float
    neighbor_count: int
    rows: tuple[ReportRow, ...]

    def to_tsv(self) -> str:
        lines = ["\t".join(_TSV_COLUMNS)]
        for r in self.rows:
            lines.append(
                "\t".join(
                    [r.config, f"{r.beta:.2f}"]
                    + [format_metric(getattr(r, name)) for name in _TSV_COLUMNS[2:]]
                )
            )
        return "\n".join(lines) + "\n"

    def to_summary_json(self) -> str:
        payload = {
            "provenance": self.provenance,
            "num_folds": self.num_folds,
            "seed": self.seed,
            "k": self.k,
            "tau": self.tau,
            "neighbor_count": self.neighbor_count,
            "rows": [asdict(r) for r in self.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def row(self, config: str, beta: float | None = None) -> ReportRow:
        for r in self.rows:
            if r.config == config and (beta is None or r.beta == beta):
                return r
        raise KeyError(f"no report row for {config!r}")


def _train_store(d: Dataset, test_mask: np.ndarray) -> RatingStore:
    keep = ~test_mask
    return RatingStore(
        d.num_users,
        d.num_items,
        d.ratings.user_idx[keep],
        d.ratings.item_idx[keep],
        d.ratings.value[keep],
    )


def _evaluate_fold(
    d: Dataset,
    profiles: TrustProfiles,
    configs: Sequence[InfluenceConfig],
    plan: FoldPlan,
    fold: int,
    k: int,
    tau: float,
) -> list[FoldMetrics]:
    test_mask = plan.assignment == fold
    train = _train_store(d, test_mask)
    models = [TrainedModel(train, profiles, d.social, c) for c in configs]

    test_idx = np.flatnonzero(test_mask)
    if test_idx.size:
        test_users = d.ratings.user_idx[test_idx]
        boundaries = np.flatnonzero(np.diff(test_users)) + 1
        groups = np.split(test_idx, boundaries)
    else:
        groups = []

    n_cfg = len(configs)
    sq_err = [0.0] * n_cfg
    abs_err = [0.0] * n_cfg
    model_n = [0] * n_cfg
    fallback_n = [0] * n_cfg
    precisions: list[list[float]] = [[] for _ in range(n_cfg)]
    recalls: list[list[float]] = [[] for _ in range(n_cfg)]
    rranks: list[list[float]] = [[] for _ in range(n_cfg)]
    diversities: list[list[float]] = [[] for _ in range(n_cfg)]
    covered = [0] * n_cfg
    skipped = 0
    num_test_users = len(groups) if test_idx.size else 0

    for group in groups:
        u = int(d.ratings.user_idx[group[0]])
        items = d.ratings.item_idx[group]
        actual = d.ratings.value[group]
        if train.rating_count_of(u) == 0:
            skipped += 1
            continue
        relevant = frozenset(int(i) for i, a in zip(items, actual) if a >= tau)
        order = np.argsort(items)
        items_sorted = items[order]
        actual_sorted = actual[order]
        cands = candidates_of(train, u, items_sorted)
        # sigma depends on the user and the similarity settings only
        sigmas: dict[tuple[str, int], np.ndarray] = {}
        for c, model in enumerate(models):
            key = (model.config.similarity_mode, model.config.min_pearson_overlap)
            if key not in sigmas:
                sigmas[key] = model.similarity(u, cands.users)
            values, is_model = model.predict_candidates(cands, sigmas[key])
            err = values[is_model] - actual_sorted[is_model]
            sq_err[c] += float(err @ err)
            abs_err[c] += float(np.abs(err).sum())
            model_n[c] += err.size
            fallback_n[c] += values.size - err.size
            if err.size:
                covered[c] += 1
            rec = _ranked(u, items_sorted, values, is_model, k)
            user_metrics = ranking_metrics([rec], {u: relevant}, k)
            precisions[c].append(user_metrics.precision)
            if relevant:
                recalls[c].append(user_metrics.recall)
            rranks[c].append(user_metrics.mrr)
            diversities[c].append(intra_diversity(rec, d.categories))

    out = []
    for c in range(n_cfg):
        precision = float(np.mean(precisions[c])) if precisions[c] else 0.0
        recall = float(np.mean(recalls[c])) if recalls[c] else 0.0
        mrr = float(np.mean(rranks[c])) if rranks[c] else 0.0
        diversity = float(np.mean(diversities[c])) if diversities[c] else 0.0
        rmse = sqrt(sq_err[c] / model_n[c]) if model_n[c] else float("nan")
        mae = abs_err[c] / model_n[c] if model_n[c] else float("nan")
        cov = covered[c] / num_test_users if num_test_users else float("nan")
        out.append(
            FoldMetrics(
                fold=fold,
                precision=precision,
                recall=recall,
                f1=_f1(precision, recall),
                rmse=rmse,
                mae=mae,
                mrr=mrr,
                diversity=diversity,
                user_coverage=cov,
                test_users=num_test_users,
                ranked_users=len(precisions[c]),
                recall_users=len(recalls[c]),
                model_predictions=model_n[c],
                fallback_predictions=fallback_n[c],
                skipped_users=skipped,
            )
        )
    return out


_POOL_CONTEXT: tuple | None = None


def _pool_worker(fold: int) -> list[FoldMetrics]:
    d, profiles, configs, plan, k, tau = _POOL_CONTEXT
    return _evaluate_fold(d, profiles, configs, plan, fold, k, tau)


def _mean_defined(values: Iterable[float]) -> float:
    """Mean over the defined (non-NaN) values; NaN when there are none."""
    usable = [v for v in values if not isnan(v)]
    return float(np.mean(usable)) if usable else float("nan")


def run_experiment(
    d: Dataset,
    configs: Sequence[InfluenceConfig],
    plan: FoldPlan,
    k: int = 10,
    tau: float = 4.0,
    workers: int = 1,
) -> EvaluationReport:
    """Cross-validate every configuration under one fold plan.

    Results are deterministic for a fixed dataset, configuration list and
    plan, regardless of ``workers``.
    """
    if plan.assignment.shape != (len(d.ratings),):
        raise ValueError("fold plan does not match the dataset")
    names = [(c.name, c.beta) for c in configs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate (config, beta) rows requested")

    profiles = build_profiles(d)
    folds = list(range(plan.num_folds))
    if workers > 1:
        import multiprocessing as mp

        global _POOL_CONTEXT
        _POOL_CONTEXT = (d, profiles, configs, plan, k, tau)
        try:
            with mp.get_context("fork").Pool(workers) as pool:
                per_fold = pool.map(_pool_worker, folds)
        finally:
            _POOL_CONTEXT = None
    else:
        per_fold = [
            _evaluate_fold(d, profiles, configs, plan, fold, k, tau)
            for fold in folds
        ]

    rows = []
    for c, config in enumerate(configs):
        fold_metrics = tuple(per_fold[fold][c] for fold in folds)
        precision = _mean_defined(m.precision for m in fold_metrics)
        recall = _mean_defined(m.recall for m in fold_metrics)
        rows.append(
            ReportRow(
                config=config.name,
                beta=config.beta,
                precision=precision,
                recall=recall,
                f1=_f1(precision, recall),
                rmse=_mean_defined(m.rmse for m in fold_metrics),
                mae=_mean_defined(m.mae for m in fold_metrics),
                mrr=_mean_defined(m.mrr for m in fold_metrics),
                diversity=_mean_defined(m.diversity for m in fold_metrics),
                user_coverage=_mean_defined(m.user_coverage for m in fold_metrics),
                model_predictions=sum(m.model_predictions for m in fold_metrics),
                fallback_predictions=sum(m.fallback_predictions for m in fold_metrics),
                folds=fold_metrics,
            )
        )
    return EvaluationReport(
        provenance=d.provenance,
        num_folds=plan.num_folds,
        seed=plan.seed,
        k=k,
        tau=tau,
        neighbor_count=configs[0].neighbor_count if configs else 0,
        rows=tuple(rows),
    )
