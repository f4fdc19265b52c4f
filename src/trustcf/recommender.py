"""Influence-weighted neighborhood rating prediction.

A candidate neighbor for predicting user u on item i is any training
rater of i other than u.  Each candidate v gets an influence score

    influence = beta * similarity(u, v) + (1 - beta) * trust(u, v, i)

where similarity is either rating-pattern agreement (Pearson over
co-rated items, negatives clamped to 0) or a social closeness measure,
and trust is the fused facet score.  Up to ``neighbor_count`` candidates
with strictly positive influence, taken in descending influence order
(ties broken by ascending user handle), drive a mean-centered weighted
prediction clipped back into the rating scale.  When no candidate
qualifies the model falls back to u's training mean.

Scoring is batched over blocks of (user, item) slots, any number of
users at once.  :func:`block_candidates` gathers every training rater of
the slots' items in one pass over the store's item rows, from one
training store or, with fold labels, from each slot's own fold of one
full store, and lists the distinct (user, candidate) pairs.
:func:`score_block` turns a block into the influence of every entry
under any number of models, one row each, and the models' predictions:
it is the one place where similarity, trust and beta meet, and says what
the models of a block share.  Its :func:`predict_block` selects the
neighbors of and predicts every (configuration, slot) at once;
:func:`best_k` is one sort of packed (group, descending value, position)
integer keys.  Every :class:`TrainedModel` operation
(:meth:`~TrainedModel.predict_items`, :meth:`~TrainedModel.predict`,
:meth:`~TrainedModel.select_neighbors`, :meth:`~TrainedModel.influence`)
is a block of one user scored by that one model.  No result is memoized
between calls.

Pearson has one enumeration and one kernel.  A :class:`CoRatings` index
lists, for each pair of users that co-rate enough items, the positions
of both users' ratings of each shared item, items ascending;
:meth:`CoRatings.pearson` reduces its entries to one correlation per
pair for each of several folds, each fold holding out its own ratings.
A model indexes the users it is asked about over its whole store, with
nothing held out; an evaluation indexes the full data once per run and
reduces a group's folds in one pass over the index.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import RATING_MAX, RATING_MIN, RatingStore, check_handles, csr_rows, search_keys
from .errors import UnknownConfiguration, UnknownUser
from .social import SocialGraph, relatedness
from .social import jaccard as _jaccard  # noqa: F401  (perfbench/spans.py traces this name)
from .trust import FacetWeights, Fusion, TrustProfiles

SIMILARITY_MODES = ("pearson", "rel_direct", "rel_intersection")


class PredictionKind(enum.Enum):
    MODEL = "model"
    FALLBACK = "fallback"


class Prediction(NamedTuple):
    value: float
    kind: PredictionKind


@dataclass(frozen=True)
class InfluenceConfig:
    """Everything that determines how influence is scored."""

    name: str
    similarity_mode: str
    facet_weights: FacetWeights = field(default_factory=FacetWeights)
    beta: float = 0.1
    neighbor_count: int = 50

    def __post_init__(self):
        if self.similarity_mode not in SIMILARITY_MODES:
            raise ValueError(f"unknown similarity mode {self.similarity_mode!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.neighbor_count < 1:
            raise ValueError("neighbor_count must be positive")


def _centred_pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson r of two aligned rating vectors; 0 when either is constant."""
    xd = x - x.mean()
    yd = y - y.mean()
    den = np.sqrt(float(xd @ xd) * float(yd @ yd))
    if den == 0.0:
        return 0.0
    return float(xd @ yd) / den


def _pearson_kernel(pair_at: np.ndarray, x: np.ndarray, y: np.ndarray, size: int) -> np.ndarray:
    """Pearson agreement of each of ``size`` pairs, clamped into [0, 1].

    Entry n is a co-rated item of pair ``pair_at[n]``, rated ``x[n]`` and
    ``y[n]``; the entries of a pair are contiguous and come in ascending
    item order.  Per pair, means are taken over the co-rated items only.
    Zero variance on either side, as with fewer than two co-rated items,
    yields 0.  Sums are reduced with ``np.bincount`` in two passes: means
    first, then sums of centred products.

    A candidate qualifies as a neighbor only on strictly positive
    influence, so the sign of a correlation that is 0 up to rounding
    matters, and summation order decides it.  Such pairs are settled by
    :func:`_centred_pearson` on their co-rated vectors, the per-pair
    arithmetic (BLAS dot products) of a per-pair evaluation, so the
    neighbor sets stay those of one.
    """
    n = np.bincount(pair_at, minlength=size)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_x = np.bincount(pair_at, weights=x, minlength=size) / n
        mean_y = np.bincount(pair_at, weights=y, minlength=size) / n
    xd = x - mean_x[pair_at]
    yd = y - mean_y[pair_at]
    sxy = np.bincount(pair_at, weights=xd * yd, minlength=size)
    sxx = np.bincount(pair_at, weights=xd * xd, minlength=size)
    syy = np.bincount(pair_at, weights=yd * yd, minlength=size)
    den = np.sqrt(sxx * syy)
    scored = den != 0.0
    r = np.zeros(size, dtype=np.float64)
    r[scored] = sxy[scored] / den[scored]

    # Where |sxy| is within the rounding error of either way of summing
    # (a few (n + 1) eps of the terms, means included, bounded by
    # Cauchy-Schwarz), the per-pair arithmetic decides the sign.
    slack = 4.0 * (n + 1) * np.finfo(np.float64).eps
    spread = den + RATING_MAX * np.sqrt(n) * (np.sqrt(sxx) + np.sqrt(syy))
    near = np.flatnonzero(scored & (np.abs(sxy) <= slack * spread))
    lo = np.searchsorted(pair_at, near)
    for j, a, b in zip(near, lo, lo + n[near]):
        r[j] = _centred_pearson(x[a:b], y[a:b])
    return np.clip(r, 0.0, 1.0)


# The fewest co-rated items a pair is indexed with: one item has no variance.
MIN_CORATED = 2

# Co-rated entries a CoRatings enumerates, or reduces, at once.  Memory
# follows this chunk (or one user's entries), not the corpus, in which a
# popular item i adds |R(i)|^2 entries.
_CORATE_CHUNK = 8192


def cost_runs(cost: np.ndarray, limit: int) -> np.ndarray:
    """Edges of consecutive runs of ``cost``, cut where an entry starts at or
    past a multiple of ``limit`` of cumulative cost: a run's entries but its
    last add up to less than ``limit``, so a run exceeds it by at most its last entry's cost."""
    start = np.cumsum(cost) - cost
    run = start // limit
    return np.concatenate(([0], np.flatnonzero(np.diff(run)) + 1, [cost.size]))


class CoRatings:
    """Co-rated ratings of the user pairs {u, v}, u != v, with u among
    ``users`` (ascending), that share at least ``min_count`` rated items.

    Pair p is ``keys[p] = a * num_users + b`` for its users a < b, keys
    ascending.  Its entries ``ptr[p]:ptr[p + 1]`` hold, items ascending,
    the canonical positions in ``store`` of both users' ratings of each
    item both rated: ``pos_u`` of the user the pair was listed from,
    ``pos_v`` of the other.  Pearson is symmetric, in rounding too (every
    sum, product and dot product of the kernel only swaps operands), so
    one pair serves both orders.  Built once over a dataset's ratings, it
    serves every fold: a training store is the same ratings with some
    held out, and a pair's training entries are its entries with neither
    position held out.  :meth:`pearson` reduces any number of folds in
    one pass over the entries, which read their ratings and fold labels
    once for all of them.
    """

    def __init__(self, store: RatingStore, users: np.ndarray, min_count: int):
        self.store = store
        users = np.asarray(users, dtype=np.int64)
        listed = np.zeros(store.num_users, dtype=bool)
        listed[users] = True
        # each rating of u enumerates every rater of its item, u included
        u_at, items, _ = store.items_of_many(users)
        per_rating = store.item_rating_counts()[items]
        edges = cost_runs(np.bincount(u_at, per_rating, minlength=users.size), _CORATE_CHUNK)
        parts = [
            self._pairs(users[a:b], listed, min_count) for a, b in zip(edges[:-1], edges[1:])
        ]
        keys, counts, pos_u, pos_v = (np.concatenate(col) for col in zip(*parts))
        ptr = np.concatenate(([0], np.cumsum(counts)))
        if (keys[1:] < keys[:-1]).any():  # pairs with unlisted users, from several chunks
            order = np.argsort(keys)
            _, flat = csr_rows(ptr, order)
            keys, counts, pos_u, pos_v = keys[order], counts[order], pos_u[flat], pos_v[flat]
            ptr = np.concatenate(([0], np.cumsum(counts)))
        self.keys, self.ptr, self.pos_u, self.pos_v = keys, ptr, pos_u, pos_v
        self._edges = cost_runs(counts, _CORATE_CHUNK)

    def _pairs(
        self, users: np.ndarray, listed: np.ndarray, min_count: int
    ) -> tuple[np.ndarray, ...]:
        """(keys, entry counts, pos_u, pos_v) of the pairs listed from some users."""
        store = self.store
        u_at, items, pos_u = store.items_of_many(users)
        i_at, pos_v = store.ratings_of_items(items)
        raters = store.user_idx[pos_v]
        us = users[u_at[i_at]]
        # each pair once: from its smaller user, or from the one listed
        other = np.flatnonzero((raters > us) | (raters < us) & ~listed[raters])
        us, raters = us[other], raters[other]
        keys = np.minimum(us, raters) * store.num_users + np.maximum(us, raters)
        # stable: a pair's entries keep the ascending items of the user's row
        sort = np.argsort(keys, kind="stable")
        keys, order = keys[sort], other[sort]
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        counts = np.diff(np.append(first, keys.size))
        kept = counts >= min_count
        order = order[np.repeat(kept, counts)]
        return (
            keys[first[kept]],
            counts[kept],
            pos_u[i_at[order]].astype(np.int32),
            pos_v[order].astype(np.int32),
        )

    def pearson(self, label: np.ndarray | None = None, num_folds: int = 1) -> np.ndarray:
        """(folds x pairs) Pearson agreement, clamped into [0, 1]: row f
        reduces each pair over its co-rated items where neither rating is
        held out of fold f.

        ``label`` gives each of the store's canonical positions its fold
        (-1: in no fold), and fold f holds out the positions labelled f;
        with no ``label`` nothing is held out.  Each chunk's entries gather
        their ratings and fold labels once for every fold.
        """
        value = self.store.value
        out = np.empty((num_folds, self.keys.size))
        for a, b in zip(self._edges[:-1], self._edges[1:]):
            lo, hi = self.ptr[a], self.ptr[b]
            pair_at = np.repeat(np.arange(b - a), np.diff(self.ptr[a:b + 1]))
            pos_u, pos_v = self.pos_u[lo:hi], self.pos_v[lo:hi]
            x, y = value[pos_u], value[pos_v]
            if label is None:
                out[:, a:b] = _pearson_kernel(pair_at, x, y, b - a)
                continue
            label_u, label_v = label[pos_u], label[pos_v]
            for f in range(num_folds):
                kept = np.flatnonzero((label_u != f) & (label_v != f))
                out[f, a:b] = _pearson_kernel(pair_at[kept], x[kept], y[kept], b - a)
        return out

    def find(self, users: np.ndarray, cands: np.ndarray) -> np.ndarray:
        """Index of each pair {users[n], cands[n]}; -1 for a pair not indexed."""
        a, b = np.minimum(users, cands), np.maximum(users, cands)
        at, found = search_keys(self.keys, a * self.store.num_users + b)
        return np.where(found, at, -1)

    def of(self, scores: np.ndarray, users: np.ndarray, cands: np.ndarray) -> np.ndarray:
        """``scores[p]`` of each pair {users[n], cands[n]}; 0 for a pair not indexed."""
        at = self.find(users, cands)
        hit = at >= 0
        out = np.zeros(at.size, dtype=np.float64)
        out[hit] = scores[at[hit]]
        return out


def _pearson_pairs(train: RatingStore, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Pearson agreement of each (us[p], vs[p]) pair over all of ``train``."""
    index = CoRatings(train, np.unique(us), MIN_CORATED)
    return index.of(index.pearson()[0], us, vs)


def pearson_many(train: RatingStore, u: int, v_arr: np.ndarray) -> np.ndarray:
    """Pearson agreement of u with each candidate, clamped into [0, 1].

    The co-rating index of u alone, with nothing held out; candidates
    may repeat and come in any order, and u itself scores 0.
    """
    v_arr = check_handles(v_arr, train.num_users, "user", UnknownUser)
    train.rating_count_of(u)  # rejects an unknown u
    return _pearson_pairs(train, np.full(v_arr.size, u, dtype=np.int64), v_arr)


def pearson(train: RatingStore, u: int, v: int) -> float:
    """Pearson agreement of u and v; see :func:`pearson_many`."""
    return float(pearson_many(train, u, np.array([v]))[0])


_SIGN_BIT = np.int64(np.iinfo(np.int64).min)


def best_k(group_at: np.ndarray, values: np.ndarray, k) -> np.ndarray:
    """Indices of each group's k highest ``values``, by group, then rank.

    Entry n belongs to group ``group_at[n]`` (non-negative).  Equal
    values (``-0.0`` and ``0.0`` among them) rank by input position, so
    a caller passes each group's entries in tie order.  ``k`` is one
    limit, or one per entry.  ``values`` holds no NaN.

    One sort of distinct uint64 keys gives the (group, -value, position)
    order: the group in the high bits, the input position in the low
    bits and, between them, the value's IEEE-754 bits made to descend
    with it, less the lowest such code, shifted right as far as the bits
    left over require.  The group and position bits must fit in 64.  A
    shift can give distinct values of one group the same code (all of a
    group's values, when no bits are left); only such runs are sorted
    again, exactly.
    """
    n = values.size
    if not n:
        return np.zeros(0, dtype=np.int64)
    group_at = np.asarray(group_at, dtype=np.int64)
    sizes = np.bincount(group_at)
    group_bits = (sizes.size - 1).bit_length()
    position_bits = (n - 1).bit_length()
    value_bits = 64 - group_bits - position_bits
    if value_bits < 0:
        raise ValueError("group and position bits exceed 64")
    # 0.0 - v negates v and folds -0.0 into 0.0; flipping every bit of a
    # negative float and the sign bit of any other makes the bits ascend
    # with the float, as uint64
    key = np.subtract(0.0, values, dtype=np.float64).view(np.int64)
    spare = key >> 63
    spare |= _SIGN_BIT
    key ^= spare
    key = key.view(np.uint64)
    key -= key.min()
    # numpy shifts every bit out of a uint64 at 64 bits or more
    shift = max(int(key.max()).bit_length() - value_bits, 0)
    key >>= np.uint64(shift)
    key <<= np.uint64(position_bits)
    key |= np.arange(n, dtype=np.uint64)
    group = spare.view(np.uint64)
    np.left_shift(group_at.view(np.uint64), np.uint64(64 - group_bits), out=group)
    key |= group
    key.sort()
    order = (key & np.uint64((1 << position_bits) - 1)).view(np.int64)
    if shift:
        # one code (so one group) holds its values in position order; where
        # the code was cut short, a value may exceed the one before it
        code = key >> np.uint64(position_bits)
        ordered = values[order]
        same = code[1:] == code[:-1]
        wrong = same & (ordered[1:] > ordered[:-1])
        if wrong.any():
            run = np.cumsum(np.concatenate(([True], ~same)))
            clashed = np.zeros(run[-1] + 1, dtype=bool)
            clashed[run[1:][wrong]] = True
            at = np.flatnonzero(clashed[run])
            # lexsort is stable: equal values keep their ascending positions
            order[at] = order[at][np.lexsort((-ordered[at], run[at]))]
    if sizes.max() <= np.min(k):
        return order
    ranked = group_at[order]
    place = np.arange(n) - (np.cumsum(sizes) - sizes)[ranked]
    return order[place < np.broadcast_to(k, order.shape)[order]]


class Candidates(NamedTuple):
    """Every training rater of a block of (user, item) slots, as one flat batch.

    Slot s stands for user ``slot_users[s]`` and item ``slot_items[s]``;
    ``slot_means[s]`` is that user's training mean.  Pair p is user
    ``pair_users[p]`` with one of its candidates, ``pair_cands[p]``; each
    pair appears once, ascending by (user, candidate), however many of
    the user's slots it serves.  Entry n is the rating, at canonical
    position ``positions[n]`` of the store the candidates come from, that
    candidate ``pair_cands[pair_at[n]]`` gave to the item of slot
    ``slot_at[n]``; ``deviations[n]`` is that rating minus the
    candidate's training mean.  Entries are grouped by slot, slots
    ascending (``slot_at`` never decreases), with candidates ascending
    inside a slot: :func:`predict_block` relies on this order.  No user is
    its own candidate.
    """

    slot_users: np.ndarray
    slot_items: np.ndarray
    slot_means: np.ndarray
    pair_users: np.ndarray
    pair_cands: np.ndarray
    slot_at: np.ndarray
    pair_at: np.ndarray
    deviations: np.ndarray
    positions: np.ndarray


def block_candidates(
    store: RatingStore,
    slot_users: np.ndarray,
    slot_items: np.ndarray,
    slot_folds: np.ndarray | None = None,
    folds: np.ndarray | None = None,
    means: np.ndarray | None = None,
) -> Candidates:
    """The candidates of each (user, item) slot.

    By default ``store`` is the training store: every other rater of the
    item is a candidate, and means are the store's user means.  Several
    training stores can share one batch instead: ``folds`` labels each of
    the store's ratings (canonical order) with its fold, slot s is
    scored in fold ``slot_folds[s]``, a rater whose rating is labelled
    with the slot's fold is held out of it, and row f of ``means`` holds
    fold f's training means (:meth:`~trustcf.dataset.RatingStore.held_out_means`).
    A user or item handle outside the store raises ``UnknownUser`` or
    ``IndexError``.
    """
    slot_users = check_handles(slot_users, store.num_users, "user", UnknownUser)
    slot_items = check_handles(slot_items, store.num_items, "item", IndexError)
    if slot_folds is None:
        slot_folds = np.zeros(slot_users.size, dtype=np.int64)
    if means is None:
        means = store.user_means()[None, :]
    slot_at, positions = store.ratings_of_items(slot_items)
    # held-out raters go first, before their users and values are read
    if folds is not None:
        kept = np.flatnonzero(folds[positions] != slot_folds[slot_at])
        slot_at, positions = slot_at[kept], positions[kept]
    raters = store.user_idx[positions]
    others = np.flatnonzero(raters != slot_users[slot_at])
    slot_at, raters, positions = slot_at[others], raters[others], positions[others]
    keys = slot_users[slot_at] * store.num_users + raters
    pair_keys, pair_at = np.unique(keys, return_inverse=True)
    pair_users, pair_cands = np.divmod(pair_keys, store.num_users)
    # flat (fold, user) indices gather faster than pairs of indices
    means = means.reshape(-1)
    return Candidates(
        slot_users,
        slot_items,
        means[slot_folds * store.num_users + slot_users],
        pair_users,
        pair_cands,
        slot_at,
        pair_at,
        store.value[positions] - means[slot_folds[slot_at] * store.num_users + raters],
        positions,
    )


class BlockPrediction(NamedTuple):
    """Predictions of a block's slots under several configurations.

    ``values[n, s]`` and ``is_model[n, s]`` are configuration n's
    prediction for slot s.  ``chosen`` holds the neighbors as flat
    indices into the (configurations x entries) influence, by
    configuration, then slot, then rank.
    """

    values: np.ndarray
    is_model: np.ndarray
    chosen: np.ndarray


def predict_block(c: Candidates, influence: np.ndarray, neighbor_counts) -> BlockPrediction:
    """Select the neighbors of, and predict, every (configuration, slot).

    ``c`` comes from :func:`block_candidates`; ``influence[n, e]`` is
    entry e's influence under configuration n, which keeps at most
    ``neighbor_counts[n]`` neighbors per slot.  Only
    strictly positive influence qualifies; equal influence ranks by
    ascending candidate handle.  A slot with no neighbor falls back to
    its user's training mean.

    Because c's entries come grouped by slot, slots ascending, with
    candidates ascending inside a slot, the positive entries of the
    (configurations x entries) influence, read row by row, are already
    grouped by (configuration, slot) ascending, in tie order, and each
    entry's configuration comes from per-row counts.  Each prediction
    sums its neighbors' terms in descending influence order.
    """
    num_configs, num_entries = influence.shape
    size = c.slot_items.size
    cells = num_configs * size
    positive = influence > 0.0
    config_at = np.repeat(np.arange(num_configs), np.count_nonzero(positive, axis=1))
    positive = np.flatnonzero(positive)
    entry_at = positive - config_at * num_entries
    # (configuration, slot) ascending, candidates ascending inside a slot
    group = config_at * size + c.slot_at[entry_at]
    infl = influence.ravel()[positive]
    limit = np.asarray(neighbor_counts, dtype=np.int64)[config_at]
    top = best_k(group, infl, limit)
    chosen, group, infl = positive[top], group[top], infl[top]
    num = np.bincount(group, weights=infl * c.deviations[entry_at[top]], minlength=cells)
    den = np.bincount(group, weights=infl, minlength=cells)
    # a sum of positive terms is positive: den > 0 where a neighbor was kept
    is_model = den > 0.0
    shift = np.divide(num, den, out=np.zeros(cells), where=is_model)
    values = np.clip(np.tile(c.slot_means, num_configs) + shift, RATING_MIN, RATING_MAX)
    shape = (num_configs, size)
    return BlockPrediction(values.reshape(shape), is_model.reshape(shape), chosen)


_SIGMA_REL_MODE = {"rel_direct": "direct", "rel_intersection": "intersection"}


def score_block(
    c: Candidates, models: Sequence[TrainedModel], pearson: np.ndarray | None
) -> tuple[np.ndarray, BlockPrediction]:
    """(influence, prediction) of c's slots under each of ``models``.

    Row n of the (models x entries) influence is model n's
    ``beta * sigma + (1 - beta) * trust`` of each entry, or
    ``beta * sigma`` when no usable facet weighs; :func:`predict_block`
    then keeps up to each model's neighbor count.  ``pearson[e]`` is the
    Pearson sigma of entry e's pair, read only for models that use
    Pearson; relatedness comes from the models' graph.

    The models share one store, one set of profiles and one graph, so
    sigma depends only on the pairs and the similarity mode, and trust
    only on the entries and the facet weights: each is computed once per
    distinct setting and serves every model that shares it.
    """
    graph = models[0].social
    sigmas: dict[str, np.ndarray] = {}
    trusts: dict[FacetWeights, np.ndarray | None] = {}
    influence = np.empty((len(models), c.slot_at.size))
    for n, model in enumerate(models):
        mode, facets = model.config.similarity_mode, model.config.facet_weights
        if mode not in sigmas:
            sigmas[mode] = pearson if mode == "pearson" else relatedness(
                graph, c.pair_users, c.pair_cands, _SIGMA_REL_MODE[mode])[c.pair_at]
        if facets not in trusts:
            trusts[facets] = model.trust(c)
        beta, sigma, trust = model.config.beta, sigmas[mode], trusts[facets]
        influence[n] = beta * sigma if trust is None else beta * sigma + (1.0 - beta) * trust
    return influence, predict_block(c, influence, [m.config.neighbor_count for m in models])


class TrainedModel:
    """One configuration bound to a training rating store.

    Trust profiles come from the full dataset; only rating-derived state
    (candidate sets, Pearson similarity, user means, which review scores
    a candidate can contribute) is fold-specific.  Trust is the
    configuration's :class:`~trustcf.trust.Fusion`; when it is empty,
    influence degenerates to beta * similarity.  Each public operation
    scores a block of one user with :func:`score_block`.

    The model keeps the review score of each rating of its store, by
    canonical position: the profiles' own scores when the store is the
    profiles' store, so building such a model is O(facets), or else one
    lookup per rating.
    """

    def __init__(
        self,
        train: RatingStore,
        profiles: TrustProfiles,
        social: SocialGraph,
        config: InfluenceConfig,
    ):
        if train.num_users != social.num_users:
            raise ValueError("training ratings and social graph disagree on users")
        if train.num_users != profiles.store.num_users:
            raise ValueError("training ratings and profiles disagree on users")
        self.train = train
        self.social = social
        self.config = config
        self._fusion = Fusion(profiles, social, config.facet_weights)
        if train is profiles.store:
            self._frev = profiles.frev
        else:
            self._frev = profiles.frev_at(train.user_idx, train.item_idx)

    # -- scoring ---------------------------------------------------------

    def trust(self, c: Candidates) -> np.ndarray | None:
        """Fused trust of each of c's entries; None when no usable facet weighs.

        An entry's review score is that of its rating in this model's
        store, and 0 at position -1 (no such rating).
        """
        if self._fusion.empty:
            return None
        frev = self._frev[c.positions]
        frev[c.positions < 0] = 0.0
        return self._fusion.trust(c.pair_users, c.pair_cands, c.pair_at, frev)

    def _predict(self, c: Candidates) -> tuple[np.ndarray, BlockPrediction]:
        """(influence, prediction) of c under this model alone: a block of one row."""
        pearson = None
        if self.config.similarity_mode == "pearson":
            pearson = _pearson_pairs(self.train, c.pair_users, c.pair_cands)[c.pair_at]
        return score_block(c, [self], pearson)

    # -- public operations -------------------------------------------------

    def influence(self, u: int, v: int, i: int) -> float:
        """Influence of candidate v on u's prediction for item i.

        v's review score for i counts only when it is a training rating.
        A user is never their own candidate: ``u == v`` raises ValueError.
        """
        self._check_known(u)
        check_handles(v, self.train.num_users, "user", UnknownUser)
        check_handles(i, self.train.num_items, "item", IndexError)
        if u == v:
            raise ValueError("a user is not their own candidate")
        users, cands, items = np.array([u]), np.array([v]), np.array([i])
        zero = np.zeros(1, dtype=np.int64)
        # one slot, one pair, one entry: v's rating of i, which may not exist
        c = Candidates(users, items, np.zeros(1), users, cands, zero, zero, np.zeros(1),
                       self.train.positions(cands, items))
        return float(self._predict(c)[0][0, 0])

    def select_neighbors(self, u: int, i: int) -> list[tuple[int, float]]:
        """Neighbors of u for item i: (candidate, influence), best first.

        Only strictly positive influence qualifies; ties are broken by
        ascending user handle, and at most ``neighbor_count`` survive.
        """
        self._check_known(u)
        c = block_candidates(self.train, np.array([u]), np.array([i]))
        infl, p = self._predict(c)
        return [(int(c.pair_cands[c.pair_at[e]]), float(infl[0, e])) for e in p.chosen]

    def predict_items(self, u: int, items) -> tuple[np.ndarray, np.ndarray]:
        """(predicted rating, model-based?) of u for each of ``items``."""
        self._check_known(u)
        # block_candidates checks the item handles
        _, p = self._predict(block_candidates(self.train, np.full(np.size(items), u), items))
        return p.values[0], p.is_model[0]

    def predict(self, u: int, i: int) -> Prediction:
        """Predicted rating of u for i, flagged model-based or fallback."""
        values, is_model = self.predict_items(u, [i])
        kind = PredictionKind.MODEL if is_model[0] else PredictionKind.FALLBACK
        return Prediction(float(values[0]), kind)

    def _check_known(self, u: int) -> None:
        if self.train.rating_count_of(u) == 0:  # which rejects a handle out of range
            raise UnknownUser(f"user {u} has no training ratings")


# -- configuration catalogue ------------------------------------------------

_AWARD_FACETS = ("elite", "lup", "opleader", "vis")


def _weights(names: tuple[str, ...], rel_mode: str = "none") -> FacetWeights:
    return FacetWeights({n: 1.0 for n in names}, rel_mode=rel_mode)

_CATALOGUE: dict[str, dict] = {
    # pure rating-pattern similarity; trust switched off entirely
    "U2UCF": dict(similarity_mode="pearson", facet_weights=FacetWeights(), pure=True),
    # pure social closeness
    "U2USocial": dict(
        similarity_mode="rel_intersection", facet_weights=FacetWeights(), pure=True
    ),
    "MTR-U": dict(
        similarity_mode="pearson",
        facet_weights=_weights(("fb", "frev", "rel"), rel_mode="direct"),
    ),
    "MTR-S": dict(
        similarity_mode="pearson",
        facet_weights=_weights(_AWARD_FACETS + ("fb", "frev")),
    ),
    "MTR-F": dict(
        similarity_mode="pearson",
        facet_weights=_weights(_AWARD_FACETS + ("rel",), rel_mode="direct"),
    ),
    "MTR-FS": dict(
        similarity_mode="pearson",
        facet_weights=_weights(_AWARD_FACETS),
    ),
    "MTR-US": dict(
        similarity_mode="pearson",
        facet_weights=_weights(("fb", "frev")),
    ),
    "MTR": dict(
        similarity_mode="pearson",
        facet_weights=_weights(_AWARD_FACETS + ("fb", "frev", "rel"), rel_mode="direct"),
    ),
    "MTRTrust1": dict(
        similarity_mode="rel_direct",
        facet_weights=_weights(_AWARD_FACETS + ("fb", "frev")),
    ),
    "MTRTrust2": dict(
        similarity_mode="rel_intersection",
        facet_weights=_weights(_AWARD_FACETS + ("fb", "frev")),
    ),
}


def config_names() -> tuple[str, ...]:
    return tuple(_CATALOGUE)


def make_config(name: str, beta: float = 0.1, neighbor_count: int = 50) -> InfluenceConfig:
    """Named configuration from the built-in catalogue.

    The two pure-similarity baselines ignore the requested beta: with no
    trust facets the blend is meaningless, so beta is pinned to 1.
    """
    entry = _CATALOGUE.get(name)
    if entry is None:
        raise UnknownConfiguration(
            f"unknown configuration {name!r}; valid names: {', '.join(_CATALOGUE)}"
        )
    beta_eff = 1.0 if entry.get("pure") else beta
    return InfluenceConfig(
        name=name,
        similarity_mode=entry["similarity_mode"],
        facet_weights=entry["facet_weights"],
        beta=beta_eff,
        neighbor_count=neighbor_count,
    )
