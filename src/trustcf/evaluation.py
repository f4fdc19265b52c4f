"""Offline cross-validated evaluation of recommender configurations.

Ratings are partitioned once into F seeded folds of near-equal size.
For each fold the remaining ratings train a model per configuration;
every held-out (user, item) pair is predicted, and each test user gets a
top-k list ranked over their own held-out items.  Error metrics pool the
fold's model-based predictions; ranking metrics are macro-averaged per
user inside the fold; fold values are then averaged unweighted.  Both
averages skip undefined values: a fold with no model-based prediction
has no RMSE or MAE, and a fold with no ranked user (or, for recall, none
with a relevant item) has no ranking metric.  A metric no fold defines
is NaN in ``summary.json`` and ``-`` in ``report.tsv``.

Folds are evaluated in groups of consecutive folds, the first group in
the calling process and each other in a child forked for it; a group's
test users are scored in blocks of whole users, each block holding every
held-out rating of its users in every fold of the group, one set of
numpy calls per block.  A block's size is a budget of cells,
configurations x (slots plus candidate entries), so a run of fewer
configurations scores more users per block.  A slot (one
held-out rating) is scored in its own fold: its candidates are the other
raters of its item in the full store, less any whose rating that fold
holds out.  Work that neither beta nor the fold changes is shared by
every configuration and every fold:

* per run: the co-rating index (:class:`~trustcf.recommender.CoRatings`)
  of the full data, when some configuration uses Pearson; see
  :func:`_corating_index` for the pairs it keeps;
* per fold group, per fold: the training mean of every user (one
  bincount pass over the ratings the fold keeps, in canonical order, as
  the fold's training store would sum them), and the Pearson
  correlation of every indexed pair over its entries with neither
  rating held out (one pass over the index for all the group's folds);
* per block: the candidates of every slot, each with its deviation from
  its training mean in the slot's fold, and the co-rating index search
  of each distinct (user, candidate) pair, whatever the fold; each
  entry's Pearson is then gathered from its slot's fold.

Each block is then scored by :func:`~trustcf.recommender.score_block`
with one model per configuration, all on the full store, so a candidate
rating's review score is the full data's; it shares similarity and trust
between the configurations, and selects neighbors and predicts for every
(configuration, slot) at once.  The rest also runs once per block for
every configuration: the error sums, the top-k lists and their ranking
and diversity scores over one list per (configuration, fold, user),
entries in item order.  Each fold's metrics are reduced at the end over
its own lists, in user order, every configuration at once: each per-list
score is gathered once per fold as a (configurations x lists) array and
averaged row by row (see :func:`_mean_defined`).  Every
value is a per-list or per-pair sum, added in the order of its group's
entries whatever else shares the batch, so neither the partition into
blocks, nor the grouping of folds, nor the set of configurations
evaluated together changes any result.

Trust facets are computed on the full dataset before any split, so only
rating-derived state varies across folds.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
from dataclasses import asdict, dataclass
from math import isfinite, isnan
from typing import BinaryIO, Callable, Iterable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .dataset import Dataset, ItemCategories, RatingStore, check_handles
from .recommender import (
    MIN_CORATED,
    CoRatings,
    InfluenceConfig,
    PredictionKind,
    TrainedModel,
    best_k,
    block_candidates,
    cost_runs,
    score_block,
)
from .trust import TrustProfiles, build_profiles


@dataclass(frozen=True)
class FoldPlan:
    """Seeded assignment of each canonical rating index to one fold."""

    seed: int
    num_folds: int
    assignment: np.ndarray

    def __post_init__(self):
        if self.assignment.ndim != 1 or self.assignment.dtype.kind not in "iu":
            raise ValueError("a fold assignment is a 1-d array of integer labels")
        check_handles(self.assignment, self.num_folds, "fold", ValueError)
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


def top_k(
    model: TrainedModel,
    u: int,
    candidates: Iterable[int],
    k: int,
) -> RecommendationList:
    """Rank a user's candidate items by predicted rating and keep the top k."""
    if k < 1:
        raise ValueError("k must be positive")
    # checked before np.unique, which would make [0, 1.7] floats
    items = np.unique(check_handles(list(candidates), model.train.num_items, "item", IndexError))
    values, is_model = model.predict_items(u, items)
    top = best_k(np.zeros(items.size, dtype=np.int64), values, k)
    return RecommendationList(
        user=u,
        items=tuple(
            RecItem(
                int(items[n]),
                float(values[n]),
                PredictionKind.MODEL if is_model[n] else PredictionKind.FALLBACK,
            )
            for n in top
        ),
    )


class AccuracyMetrics(NamedTuple):
    rmse: float
    mae: float


def _error_sums(
    err: np.ndarray, owner: np.ndarray, num_owners: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-owner sums of squared and of absolute errors, each added in order."""
    return (
        np.bincount(owner, weights=err * err, minlength=num_owners),
        np.bincount(owner, weights=np.abs(err), minlength=num_owners),
    )


def _running_sums(values: np.ndarray) -> np.ndarray:
    """Sum of each row, added one value at a time, in order, as a scalar
    loop adds; 0 for a row of no value."""
    if values.shape[1] == 0:
        return np.zeros(values.shape[0])
    return np.cumsum(values, axis=1)[:, -1]


def _accuracy(sq_sums: np.ndarray, abs_sums: np.ndarray, counts: np.ndarray) -> AccuracyMetrics:
    """RMSE and MAE of each row of per-owner error sums, over ``counts[row]``
    predictions; both NaN in a row with no prediction."""
    with np.errstate(invalid="ignore"):
        return AccuracyMetrics(
            np.sqrt(_running_sums(sq_sums) / counts), _running_sums(abs_sums) / counts
        )


def accuracy_metrics(pairs: Sequence[tuple[float, float]]) -> AccuracyMetrics:
    """Root-mean-squared and mean-absolute error of (predicted, actual) pairs;
    both NaN when there is no pair."""
    arr = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    err = arr[:, 0] - arr[:, 1]
    sq, ab = _error_sums(err, np.zeros(err.size, dtype=np.int64), 1)
    rmse, mae = _accuracy(sq[None], ab[None], np.array([err.size]))
    return AccuracyMetrics(float(rmse[0]), float(mae[0]))


class RankingMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    mrr: float


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _list_ranks(list_at: np.ndarray, num_lists: int) -> tuple[np.ndarray, np.ndarray]:
    """(length of each list, 0-based rank of each entry) of flat lists."""
    length = np.bincount(list_at, minlength=num_lists)
    rank = np.arange(list_at.size) - (np.cumsum(length) - length)[list_at]
    return length, rank


class _ListScores(NamedTuple):
    precision: np.ndarray
    recall: np.ndarray
    rr: np.ndarray


def _ranking_scores(
    list_at: np.ndarray, hit: np.ndarray, num_relevant: np.ndarray
) -> _ListScores:
    """Precision, recall and reciprocal rank of each ranked list.

    The lists are flat: entry n belongs to list ``list_at[n]``
    (non-decreasing), entries of a list in rank order, and ``hit[n]``
    tells whether its item is relevant.  ``num_relevant[l]`` is the size
    of list l's relevant set.  An empty list defines no value (NaN), and
    recall also needs a non-empty relevant set.
    """
    num_lists = num_relevant.size
    length, rank = _list_ranks(list_at, num_lists)
    hits = np.bincount(list_at, weights=hit, minlength=num_lists)
    listed = length > 0
    precision = np.full(num_lists, np.nan)
    precision[listed] = hits[listed] / length[listed]
    recallable = listed & (num_relevant > 0)
    recall = np.full(num_lists, np.nan)
    recall[recallable] = hits[recallable] / num_relevant[recallable]
    rr = np.where(listed, 0.0, np.nan)
    found = np.flatnonzero(hit)
    lists, first = np.unique(list_at[found], return_index=True)
    rr[lists] = 1.0 / (rank[found[first]] + 1)
    return _ListScores(precision, recall, rr)


def _mean_defined(values: np.ndarray | Sequence[float]) -> float | np.ndarray:
    """Mean over the defined (non-NaN) values; NaN when there are none.

    One rule for both levels: over a fold's lists, and over the folds.
    Given a 2-D array, the mean of each row.  Each row's defined values
    are added by one 1-D ``np.add.reduce``, in order, and divided by their
    count, as the 1-D ``np.mean`` of them does; so a row's mean has the
    same bits whatever other rows share the array.  A 2-D ``mean(axis=1)``
    would not do: numpy picks its summation order from the array's shape.
    """
    values = np.asarray(values, dtype=np.float64)
    rows = np.atleast_2d(values)
    defined = ~np.isnan(rows)
    counts = np.count_nonzero(defined, axis=1)
    flat = rows[defined]  # row by row, each row's values in order
    ends = np.cumsum(counts).tolist()
    sums = np.array([np.add.reduce(flat[e - n:e]) for n, e in zip(counts.tolist(), ends)])
    with np.errstate(invalid="ignore"):
        means = sums / counts
    return float(means[0]) if values.ndim == 1 else means


def ranking_metrics(
    lists: Iterable[RecommendationList],
    relevance: Mapping[int, frozenset[int] | set[int]],
    k: int,
) -> RankingMetrics:
    """Macro-averaged precision, recall, F1 and MRR at k.

    Precision and MRR average over users with non-empty lists; recall
    additionally requires a non-empty relevant set.  F1 is the harmonic
    mean of the two aggregates.  A metric no list defines is NaN.
    """
    if k < 1:
        raise ValueError("k must be positive")
    list_at: list[int] = []
    hit: list[bool] = []
    num_relevant: list[int] = []
    for n, rec in enumerate(lists):
        relevant = relevance.get(rec.user, frozenset())
        entries = rec.items[:k]
        list_at.extend([n] * len(entries))
        hit.extend(e.item in relevant for e in entries)
        num_relevant.append(len(relevant))
    scores = _ranking_scores(
        np.array(list_at, dtype=np.int64),
        np.array(hit, dtype=bool),
        np.array(num_relevant, dtype=np.int64),
    )
    precision = _mean_defined(scores.precision)
    recall = _mean_defined(scores.recall)
    return RankingMetrics(precision, recall, _f1(precision, recall), _mean_defined(scores.rr))


def _diversities(
    list_at: np.ndarray, num_lists: int, items: np.ndarray, cats: ItemCategories
) -> np.ndarray:
    """Intra-list diversity of each ranked list; NaN for an empty list.

    The lists are flat, as for :func:`_ranking_scores`; ``items[n]`` is
    an item handle of ``cats``.  Each list's position pairs (a, b),
    a < b, are summed in the order a scalar double loop visits them.  A
    pair's shared tags come from one :meth:`ItemCategories.shared` call
    over every pair of every list: the set bits of the AND of the two
    items' tag bitsets.  A pair with an untagged item has cosine 0.
    """
    length, rank = _list_ranks(list_at, num_lists)
    later = length[list_at] - 1 - rank
    a = np.repeat(np.arange(list_at.size), later)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(later) - later, later)
    ia, ib = items[a], items[b]
    norm = np.sqrt(cats.sizes[ia] * cats.sizes[ib])
    cosine = np.divide(cats.shared(ia, ib), norm, out=np.zeros(a.size), where=norm > 0)
    total = np.bincount(list_at[a], weights=1.0 - cosine, minlength=num_lists)
    with np.errstate(invalid="ignore"):
        return total / (length * (length + 1) / 2.0)


def intra_diversity(rec: RecommendationList, cats: ItemCategories) -> float:
    """Average pairwise category dissimilarity inside one list.

    All ordered pairs (a, b) with a <= b over the list positions count,
    self-pairs included; an item is identical to itself, so self-pairs
    contribute 0 regardless of tagging, which caps the value at
    (k - 1) / (k + 1) for a list of length k.  Between distinct
    positions, two untagged items count as fully dissimilar.  An empty
    list is NaN; an item outside ``cats`` raises IndexError.
    """
    items = check_handles(rec.item_handles(), len(cats), "item", IndexError)
    return float(_diversities(np.zeros(items.size, dtype=np.int64), 1, items, cats)[0])


def user_coverage(
    results: Mapping[int, Sequence[PredictionKind]],
    test_users: Iterable[int],
) -> float:
    """Fraction of test users with at least one model-based prediction; NaN
    when there is no test user."""
    users = set(int(u) for u in test_users)
    return _mean_defined(
        [any(kind is PredictionKind.MODEL for kind in results.get(u, ())) for u in users]
    )


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


# the ReportRow metrics that average their folds' values; F1 is taken from
# the averaged precision and recall
_FOLD_AVERAGED = ("precision", "recall", "rmse", "mae", "mrr", "diversity", "user_coverage")


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
    neighbor_count: int | None  # None when the configurations' counts differ
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


def _corating_index(d: Dataset, configs: Sequence[InfluenceConfig]) -> CoRatings | None:
    """The co-rating index the Pearson configurations of a run share; None
    when no configuration uses Pearson.

    A pair (u, v) is scored only for a held-out item of u that v rated,
    so its training overlap is at most its full overlap minus 1: the
    index keeps the pairs co-rating one item more than a score needs.
    """
    if not any(c.similarity_mode == "pearson" for c in configs):
        return None
    return CoRatings(d.ratings, np.arange(d.num_users), MIN_CORATED + 1)


# Cells per block of test users, configurations x (slots plus candidate
# entries); a block's users but its last stay below it, so a block can
# exceed it by its last user's whole cost (see cost_runs).  A block costs
# about 430 numpy calls, and its influence, selection, predictions and lists
# are (configurations x entries) arrays: a larger block pays the calls less
# often and holds more memory.  On a 2-core Xeon, one configuration over
# the large-scale corpus took 10.7 s at 2,048 entries per block and about
# 6 s at 16k-32k, while a 12-configuration sweep was slower and larger at
# any block above 2,048 entries; 12 x 2,048 cells keeps that sweep there.
_BLOCK_CELLS = 24_576


def _evaluate_fold(
    d: Dataset,
    profiles: TrustProfiles,
    configs: Sequence[InfluenceConfig],
    plan: FoldPlan,
    fold: int,
    k: int,
    tau: float,
    corating: CoRatings | None = None,
) -> list[FoldMetrics]:
    """Metrics of one fold per configuration: a group of one fold."""
    return _evaluate_folds(d, profiles, configs, plan, [fold], k, tau, corating)[0]


class _GroupSlots(NamedTuple):
    """The held-out ratings a group of folds scores, and their lists.

    Slot s is the rating at canonical position ``positions[s]``, in
    canonical order: by user, items ascending, the folds interleaved.
    There is one list per (fold, test user), numbered by user, then fold;
    list l belongs to fold ``list_folds[l]``, and slot s to list
    ``list_at[s]``.  A list is ``skipped`` when its user has no training
    rating in its fold; its ratings are not slots.  Block b holds slots
    ``edges[b]:edges[b + 1]``, whole users.
    """

    positions: np.ndarray
    list_at: np.ndarray
    list_folds: np.ndarray
    skipped: np.ndarray
    edges: np.ndarray


def _group_slots(
    store: RatingStore, label: np.ndarray, means: np.ndarray, num_configs: int
) -> _GroupSlots:
    """The slots of the folds ``label`` numbers (see :func:`_evaluate_folds`),
    whose training means are the rows of ``means``, in blocks of about
    ``_BLOCK_CELLS`` cells of ``num_configs`` configurations."""
    num_folds, num_users = means.shape
    positions = np.flatnonzero(label >= 0)
    folds = label[positions].astype(np.int64)
    keys = store.user_idx[positions] * num_folds + folds
    is_list = np.zeros(num_users * num_folds, dtype=bool)
    is_list[keys] = True
    skipped = np.isnan(means.T).ravel()  # by (user, fold), as the keys
    kept = ~skipped[keys]
    positions, folds, keys = positions[kept], folds[kept], keys[kept]
    # a slot costs itself plus its item's training raters in its fold
    items = store.item_idx[positions]
    item_keys = folds * store.num_items + items
    held = np.bincount(item_keys, minlength=num_folds * store.num_items)
    cost = 1 + store.item_rating_counts()[items] - held[item_keys]
    users = store.user_idx[positions]
    user_cost = np.bincount(users, weights=cost, minlength=num_users)
    return _GroupSlots(
        positions,
        (np.cumsum(is_list) - 1)[keys],
        np.flatnonzero(is_list) % num_folds,
        skipped[is_list],
        np.searchsorted(users, cost_runs(user_cost, max(_BLOCK_CELLS // num_configs, 1))),
    )


def _evaluate_folds(
    d: Dataset,
    profiles: TrustProfiles,
    configs: Sequence[InfluenceConfig],
    plan: FoldPlan,
    folds: Sequence[int],
    k: int,
    tau: float,
    corating: CoRatings | None = None,
) -> list[list[FoldMetrics]]:
    """Metrics of each of a group of folds, in the order of ``folds``, per
    configuration, from one pass over the group's test users.

    ``corating`` is the run's :func:`_corating_index`, built here when not given.
    """
    store = d.ratings
    num_folds = len(folds)
    # each rating's fold, numbered by its place in the group; -1 outside it
    # (the narrowest type: candidates gather it at random positions)
    place = np.full(plan.num_folds, -1, dtype=np.min_scalar_type(-num_folds))
    place[np.asarray(folds, dtype=np.int64)] = np.arange(num_folds)
    label = place[plan.assignment]
    means = store.held_out_means(label, num_folds)
    # one store for every fold and configuration: see score_block
    models = [TrainedModel(store, profiles, d.social, c) for c in configs]
    if corating is None:
        corating = _corating_index(d, configs)
    # per fold, sigma of every indexed pair
    pearson = None if corating is None else corating.pearson(label, num_folds)

    slots = _group_slots(store, label, means, len(configs))
    list_at = slots.list_at
    num_relevant = np.bincount(
        list_at, weights=store.value[slots.positions] >= tau, minlength=slots.list_folds.size
    )

    # per configuration and list; NaN where the list is empty
    n_cfg = len(configs)
    shape = (n_cfg, slots.list_folds.size)
    sq_err, abs_err, model_n = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    precision, recall = np.full(shape, np.nan), np.full(shape, np.nan)
    rr, diversity = np.full(shape, np.nan), np.full(shape, np.nan)

    for s0, s1 in zip(slots.edges[:-1], slots.edges[1:]):
        if s0 == s1:
            continue
        positions = slots.positions[s0:s1]
        items = store.item_idx[positions]
        actual = store.value[positions]
        block_folds = label[positions].astype(np.int64)
        # a user's lists are consecutive, but its slots interleave them
        l0, l1 = list_at[s0:s1].min(), list_at[s0:s1].max() + 1
        size, block_lists = s1 - s0, l1 - l0
        c = block_candidates(store, store.user_idx[positions], items, block_folds, label, means)
        # each entry's Pearson sigma in its slot's fold; a pair not indexed scores 0
        sigma = None
        if corating is not None:
            at = corating.find(c.pair_users, c.pair_cands)[c.pair_at]
            hit = np.flatnonzero(at >= 0)
            sigma = np.zeros(at.size)
            sigma[hit] = pearson[block_folds[c.slot_at[hit]], at[hit]]
        _, pred = score_block(c, models, sigma)

        # one list per (config, list of the block); flat index n * size + s
        # is config n's prediction for slot s
        owner = (np.arange(n_cfg)[:, None] * block_lists + (list_at[s0:s1] - l0)).ravel()
        is_model = pred.is_model.ravel()
        err = (pred.values - actual).ravel()[is_model]
        who = owner[is_model]
        num_lists = n_cfg * block_lists
        top = best_k(owner, pred.values.ravel(), k)
        top_lists, top_slots = owner[top], top % size
        scores = _ranking_scores(
            top_lists, actual[top_slots] >= tau, np.tile(num_relevant[l0:l1], n_cfg)
        )
        for total, block in zip(
            (sq_err, abs_err, model_n, precision, recall, rr, diversity),
            (
                *_error_sums(err, who, num_lists),
                np.bincount(who, minlength=num_lists),
                *scores,
                _diversities(top_lists, num_lists, items[top_slots], d.categories),
            ),
        ):
            total[:, l0:l1] = block.reshape(n_cfg, block_lists)

    fold_slots = np.bincount(label[slots.positions], minlength=num_folds)
    out = []
    for f, fold in enumerate(folds):
        mine = np.flatnonzero(slots.list_folds == f)  # the fold's test users, ascending
        # every configuration's lists of the fold, one row per configuration
        fold_precision, fold_recall, fold_n = precision[:, mine], recall[:, mine], model_n[:, mine]
        predictions = fold_n.sum(axis=1).astype(np.int64)
        rmse, mae = _accuracy(sq_err[:, mine], abs_err[:, mine], predictions)
        columns = {
            "precision": _mean_defined(fold_precision),
            "recall": _mean_defined(fold_recall),
            "rmse": rmse,
            "mae": mae,
            "mrr": _mean_defined(rr[:, mine]),
            "diversity": _mean_defined(diversity[:, mine]),
            "user_coverage": _mean_defined(fold_n > 0),
            "ranked_users": np.count_nonzero(~np.isnan(fold_precision), axis=1),
            "recall_users": np.count_nonzero(~np.isnan(fold_recall), axis=1),
            "model_predictions": predictions,
            "fallback_predictions": fold_slots[f] - predictions,
        }
        skipped = int(np.count_nonzero(slots.skipped[mine]))
        out.append([
            FoldMetrics(fold=fold, f1=_f1(m["precision"], m["recall"]), test_users=mine.size,
                        skipped_users=skipped, **m)
            for m in (dict(zip(columns, row))
                      for row in zip(*(column.tolist() for column in columns.values())))
        ])
    return out


def _map_groups(
    evaluate: Callable[[list[int]], list[list[FoldMetrics]]], groups: list[list[int]]
) -> list[list[list[FoldMetrics]]]:
    """``evaluate`` of every group, in order.  This process evaluates the
    first group; each other group runs in a child forked for it, which
    sees the caller's data through the fork and pickles its result, or its
    exception, back through a pipe.  One group forks nothing.

    A child's exception is raised here with its type and message; a child
    that ends without a result raises :class:`RuntimeError`.  The pipes
    are read only after this process's own group is done, so a child with
    a large result just waits to be read.  If anything here raises, the
    children are killed; every child is reaped before this returns.
    """
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe)
    try:
        for group in groups[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(evaluate, group, write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [evaluate(groups[0])]
        outputs = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for data, status in zip(outputs, statuses):
        if status != 0:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"a fold group's process ended with no result (exit code {code})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.append(value)
    return results


def _child(
    evaluate: Callable[[list[int]], list[list[FoldMetrics]]], group: list[int], write: int
) -> NoReturn:
    """A forked child's whole life: pickle ``(True, evaluate(group))``, or
    ``(False, exception)``, into the pipe ``write``, then exit, 0 only if
    the pickle was written.  It never returns into the caller's stack."""
    code = 1
    try:
        try:
            outcome = (True, evaluate(group))
        except Exception as exc:
            outcome = (False, exc)
        with open(write, "wb") as pipe:
            pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


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
    plan, regardless of ``workers``.  The folds are split into
    ``min(workers, folds)`` groups of consecutive folds, each evaluated in
    one pass: the first in this process, each other in a forked child
    (see :func:`_map_groups`).
    """
    if plan.assignment.shape != (len(d.ratings),):
        raise ValueError("fold plan does not match the dataset")
    names = [(c.name, c.beta) for c in configs]
    if not names:
        raise ValueError("no configuration requested")
    if len(set(names)) != len(names):
        raise ValueError("duplicate (config, beta) rows requested")

    if k < 1:
        raise ValueError("k must be positive")
    if not isfinite(tau):
        raise ValueError(f"tau must be a finite number, got {tau}")
    if workers < 1:
        raise ValueError("workers must be positive")

    profiles = build_profiles(d)
    corating = _corating_index(d, configs)
    folds = list(range(plan.num_folds))
    groups = [g.tolist() for g in np.array_split(folds, min(workers, len(folds)))]
    per_group = _map_groups(
        lambda group: _evaluate_folds(d, profiles, configs, plan, group, k, tau, corating),
        groups,
    )
    # per configuration, its folds' metrics in fold order
    per_config = list(zip(*(metrics for group in per_group for metrics in group)))
    # per averaged metric, one mean per configuration over its folds
    means = {
        name: _mean_defined([[getattr(m, name) for m in row] for row in per_config]).tolist()
        for name in _FOLD_AVERAGED
    }

    rows = []
    for c, (config, fold_metrics) in enumerate(zip(configs, per_config)):
        mean = {name: means[name][c] for name in _FOLD_AVERAGED}
        rows.append(
            ReportRow(
                config=config.name,
                beta=config.beta,
                f1=_f1(mean["precision"], mean["recall"]),
                **mean,
                model_predictions=sum(m.model_predictions for m in fold_metrics),
                fallback_predictions=sum(m.fallback_predictions for m in fold_metrics),
                folds=fold_metrics,
            )
        )
    counts = {c.neighbor_count for c in configs}
    return EvaluationReport(
        provenance=d.provenance,
        num_folds=plan.num_folds,
        seed=plan.seed,
        k=k,
        tau=tau,
        neighbor_count=counts.pop() if len(counts) == 1 else None,
        rows=tuple(rows),
    )
