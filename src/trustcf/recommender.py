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

Scoring is batched per user.  :func:`candidates_of` gathers every
training rater of a set of target items in one pass over the store's
item rows; :meth:`TrainedModel.similarity` scores u against all of those
candidates in one vectorized call (:func:`pearson_many`, or the
relatedness kernel of :mod:`trustcf.social`); and
:meth:`TrainedModel.predict_candidates` predicts every item of the batch
at once.  The single-pair entry points (:func:`pearson`,
:meth:`TrainedModel.predict`, :meth:`TrainedModel.influence`) are
one-element calls of the same code.  No result is memoized between
calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import RATING_MAX, RATING_MIN, RatingStore
from .errors import UnknownConfiguration, UnknownUser
from .social import SocialGraph, relatedness
from .social import jaccard as _jaccard  # noqa: F401  (perfbench/spans.py traces this name)
from .trust import FacetWeights, TrustProfiles

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
    min_pearson_overlap: int = 2

    def __post_init__(self):
        if self.similarity_mode not in SIMILARITY_MODES:
            raise ValueError(f"unknown similarity mode {self.similarity_mode!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.neighbor_count < 1:
            raise ValueError("neighbor_count must be positive")
        if self.min_pearson_overlap < 1:
            raise ValueError("min_pearson_overlap must be positive")


def _centred_pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson r of two aligned rating vectors; 0 when either is constant."""
    xd = x - x.mean()
    yd = y - y.mean()
    den = np.sqrt(float(xd @ xd) * float(yd @ yd))
    if den == 0.0:
        return 0.0
    return float(xd @ yd) / den


def pearson_many(
    train: RatingStore,
    u: int,
    v_arr: np.ndarray,
    min_overlap: int = 2,
    row: np.ndarray | None = None,
) -> np.ndarray:
    """Pearson agreement of u with each candidate, clamped into [0, 1].

    Per candidate, means are taken over the items it co-rated with u
    only.  Fewer than ``min_overlap`` co-rated items, or zero variance
    on either side, yields 0.

    u's ratings are scattered into ``row``, a zeroed buffer with one
    slot per item; every candidate's ratings are gathered through the
    store's rows and looked up in it, and the per-candidate sums are
    reduced with ``np.bincount`` in two passes: means first, then sums
    of centred products.  Only the slots written are cleared again, so
    one buffer serves any number of calls.  Without ``row`` a fresh
    buffer is used.

    A candidate qualifies as a neighbor only on strictly positive
    influence, so the sign of a correlation that is 0 up to rounding
    matters, and summation order decides it.  Such candidates are
    settled by :func:`_centred_pearson` on their co-rated vectors, the
    per-pair arithmetic (BLAS dot products) this kernel replaces, so the
    neighbor sets stay those of a per-pair evaluation.
    """
    v_arr = np.asarray(v_arr, dtype=np.int64)
    size = v_arr.size
    iu, ru = train.items_of(u)
    v_at, items, y = train.items_of_many(v_arr)
    if row is None:
        row = np.zeros(train.num_items, dtype=np.float64)
    row[iu] = ru
    x = row[items]
    row[iu] = 0.0
    co = x != 0.0  # ratings are at least RATING_MIN, so 0 marks "u did not rate"
    v_at, x, y = v_at[co], x[co], y[co]

    n = np.bincount(v_at, minlength=size)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_x = np.bincount(v_at, weights=x, minlength=size) / n
        mean_y = np.bincount(v_at, weights=y, minlength=size) / n
    xd = x - mean_x[v_at]
    yd = y - mean_y[v_at]
    sxy = np.bincount(v_at, weights=xd * yd, minlength=size)
    sxx = np.bincount(v_at, weights=xd * xd, minlength=size)
    syy = np.bincount(v_at, weights=yd * yd, minlength=size)
    den = np.sqrt(sxx * syy)
    scored = (n >= min_overlap) & (den != 0.0)
    r = np.zeros(size, dtype=np.float64)
    r[scored] = sxy[scored] / den[scored]

    # Where |sxy| is within the rounding error of either way of summing
    # (a few (n + 1) eps of the terms, means included, bounded by
    # Cauchy-Schwarz), the per-pair arithmetic decides the sign.
    slack = 4.0 * (n + 1) * np.finfo(np.float64).eps
    spread = den + RATING_MAX * np.sqrt(n) * (np.sqrt(sxx) + np.sqrt(syy))
    starts = np.searchsorted(v_at, np.arange(size + 1))
    for j in np.flatnonzero(scored & (np.abs(sxy) <= slack * spread)):
        r[j] = _centred_pearson(x[starts[j]:starts[j + 1]], y[starts[j]:starts[j + 1]])
    return np.clip(r, 0.0, 1.0)


def pearson(train: RatingStore, u: int, v: int, min_overlap: int = 2) -> float:
    """Pearson agreement of u and v; see :func:`pearson_many`."""
    return float(pearson_many(train, u, np.array([v]), min_overlap)[0])


class Candidates(NamedTuple):
    """Every training rater of a user's target items, as one flat batch.

    Entry n is the rating ``ratings[n]``, at canonical position
    ``positions[n]`` of the training store, that candidate
    ``users[user_at[n]]`` gave to ``items[item_at[n]]``.  ``users`` holds
    each candidate once, ascending; entries are grouped by item, with
    candidates ascending inside an item.  The user is never a candidate.
    """

    user: int
    items: np.ndarray
    users: np.ndarray
    item_at: np.ndarray
    user_at: np.ndarray
    ratings: np.ndarray
    positions: np.ndarray


def candidates_of(train: RatingStore, u: int, items) -> Candidates:
    """The candidates of u for each of ``items``, from the training store."""
    items = np.asarray(items, dtype=np.int64)
    item_at, raters, ratings, positions = train.raters_of_many(items)
    others = raters != u
    users, user_at = np.unique(raters[others], return_inverse=True)
    return Candidates(
        u, items, users, item_at[others], user_at, ratings[others], positions[others]
    )


_SIGMA_REL_MODE = {"rel_direct": "direct", "rel_intersection": "intersection"}


class TrainedModel:
    """One configuration bound to a training rating store.

    Trust profiles come from the full dataset; only rating-derived state
    (candidate sets, Pearson similarity, user means) is fold-specific.
    Weighted facets the profiles do not provide are dropped; if nothing
    remains, influence degenerates to beta * similarity.

    Scoring works on a :class:`Candidates` batch: one user against every
    rater of any number of items.  :meth:`similarity` depends only on the
    user, the candidates and the similarity settings, so one result can
    serve every configuration that shares those settings.
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
        self.profiles = profiles
        self.social = social
        self.config = config

        active = config.facet_weights.active()
        self._w_rel = active.pop("rel", 0.0)
        self._w_frev = active.pop("frev", 0.0)
        unidim = {n: w for n, w in active.items() if n in profiles.vectors}
        self._w_total = self._w_rel + self._w_frev + sum(unidim.values())
        static = np.zeros(train.num_users, dtype=np.float64)
        for name in sorted(unidim):
            static += unidim[name] * profiles.vectors[name]
        self._static = static
        self._rel_mode = config.facet_weights.rel_mode
        # review score of each training rating, in the store's canonical order
        self._frev = (
            profiles.frev_at(train.user_idx, train.item_idx) if self._w_frev > 0 else None
        )
        # scratch item row of pearson_many, reused across users
        self._row = (
            np.zeros(train.num_items, dtype=np.float64)
            if config.similarity_mode == "pearson"
            else None
        )

    # -- scoring ---------------------------------------------------------

    def similarity(self, u: int, v_arr: np.ndarray) -> np.ndarray:
        """The configured similarity sigma(u, v) for each candidate v."""
        mode = self.config.similarity_mode
        if mode == "pearson":
            return pearson_many(
                self.train, u, v_arr, self.config.min_pearson_overlap, self._row
            )
        return relatedness(self.social, u, v_arr, _SIGMA_REL_MODE[mode])

    def _influence(
        self,
        u: int,
        users: np.ndarray,
        sigma: np.ndarray,
        user_at: np.ndarray,
        frev: np.ndarray | None,
    ) -> np.ndarray:
        """Influence of candidate ``users[user_at[n]]`` on u, for each entry n.

        ``sigma`` holds sigma(u, v) for each of ``users``; ``frev`` holds
        each entry's review score for its item, needed only when the
        configuration weighs review feedback.
        """
        beta = self.config.beta
        if self._w_total == 0.0:
            return beta * sigma[user_at]
        t = self._static[users[user_at]]
        if self._w_frev > 0:
            t += self._w_frev * frev
        if self._w_rel > 0:
            rel = relatedness(self.social, u, users, self._rel_mode)
            t += self._w_rel * rel[user_at]
        return beta * sigma[user_at] + (1.0 - beta) * (t / self._w_total)

    def _neighbors(self, c: Candidates, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(entries, influence) of the neighbors for each of c's items.

        Only strictly positive influence qualifies, and at most
        ``neighbor_count`` per item survive.  Entries are ordered by item,
        then influence descending, then ascending user handle.
        """
        frev = None if self._frev is None else self._frev[c.positions]
        infl = self._influence(c.user, c.users, sigma, c.user_at, frev)
        positive = np.flatnonzero(infl > 0.0)
        order = positive[
            np.lexsort((c.user_at[positive], -infl[positive], c.item_at[positive]))
        ]
        item_at = c.item_at[order]
        rank = np.arange(order.size) - np.searchsorted(item_at, item_at)
        chosen = order[rank < self.config.neighbor_count]
        return chosen, infl[chosen]

    def predict_candidates(
        self, c: Candidates, sigma: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(predicted rating, model-based?) for each of c's items.

        ``c`` comes from :func:`candidates_of` on this model's training
        store, and ``sigma`` is ``self.similarity(c.user, c.users)``.  An
        item with no neighbor falls back to the user's training mean.
        """
        chosen, infl = self._neighbors(c, sigma)
        item_at = c.item_at[chosen]
        means = self.train.user_means()[c.users[c.user_at[chosen]]]
        deviations = c.ratings[chosen] - means
        size = c.items.size
        num = np.bincount(item_at, weights=infl * deviations, minlength=size)
        den = np.bincount(item_at, weights=np.abs(infl), minlength=size)
        is_model = np.bincount(item_at, minlength=size) > 0
        mean_u = self.train.mean_of(c.user)
        values = np.full(size, min(max(mean_u, RATING_MIN), RATING_MAX))
        values[is_model] = np.clip(
            mean_u + num[is_model] / den[is_model], RATING_MIN, RATING_MAX
        )
        return values, is_model

    # -- public operations -------------------------------------------------

    def influence(self, u: int, v: int, i: int) -> float:
        """Influence of candidate v on u's prediction for item i."""
        self._check_known(u)
        users = np.array([v], dtype=np.int64)
        frev = self.profiles.frev_at(users, np.array([i])) if self._w_frev > 0 else None
        infl = self._influence(
            u, users, self.similarity(u, users), np.zeros(1, np.int64), frev
        )
        return float(infl[0])

    def select_neighbors(self, u: int, i: int) -> list[tuple[int, float]]:
        """Neighbors of u for item i: (candidate, influence), best first.

        Only strictly positive influence qualifies; ties are broken by
        ascending user handle, and at most ``neighbor_count`` survive.
        """
        self._check_known(u)
        c = candidates_of(self.train, u, [i])
        chosen, infl = self._neighbors(c, self.similarity(u, c.users))
        return [(int(v), float(w)) for v, w in zip(c.users[c.user_at[chosen]], infl)]

    def predict_items(self, u: int, items) -> tuple[np.ndarray, np.ndarray]:
        """(predicted rating, model-based?) of u for each of ``items``."""
        self._check_known(u)
        c = candidates_of(self.train, u, items)
        return self.predict_candidates(c, self.similarity(u, c.users))

    def predict(self, u: int, i: int) -> Prediction:
        """Predicted rating of u for i, flagged model-based or fallback."""
        values, is_model = self.predict_items(u, [i])
        kind = PredictionKind.MODEL if is_model[0] else PredictionKind.FALLBACK
        return Prediction(float(values[0]), kind)

    def _check_known(self, u: int) -> None:
        if not 0 <= u < self.train.num_users:
            raise UnknownUser(f"user handle {u} out of range")
        if self.train.rating_count_of(u) == 0:
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
