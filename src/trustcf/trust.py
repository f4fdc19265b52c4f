"""Reputation facets and their weighted fusion into a trust score.

Every facet is normalized into [0, 1] against the population observed in
the full dataset, never per fold:

* endorsement   count_v / max_a count_a         (platform awards, fans, ...)
* visibility    apprec_v / (max_a apprec_a * contrib_v), clamped to [0, 1]
* contribution  feedback-sum_v / max_a feedback-sum_a
* review        feedback(v, i) / max_a feedback(a, i), per item

Zero denominators yield 0, so silent populations produce all-zero facets
instead of errors.  Fusion (:class:`Fusion`) is a weighted mean over the
facets that carry positive weight; facets a profile does not provide are
dropped from both numerator and denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .dataset import (
    COMPLIMENTS,
    CONTRIBUTIONS,
    RECEIVED_FEEDBACK,
    Dataset,
    RatingStore,
    ReviewFeedback,
    check_handles,
)
from .errors import AllWeightsZero, UnknownUser, WrongProvenance
from .social import SocialGraph, relatedness

REL_MODES = ("direct", "intersection", "none")

# facet names understood by fusion, besides "rel" and "frev"; no built-in
# profile supplies "fendors" or "fcontr", so a weight on them drops out
UNIDIMENSIONAL_FACETS = (
    "elite", "lup", "opleader", "vis", "fb", "fendors", "fcontr",
)


def indicator_fendors(counts) -> np.ndarray:
    """Endorsement counts scaled by the population maximum."""
    arr = np.asarray(counts, dtype=np.float64)
    if arr.size and arr.min() < 0:
        raise ValueError("endorsement counts must be non-negative")
    top = arr.max() if arr.size else 0.0
    if top <= 0:
        return np.zeros_like(arr)
    return arr / top


def indicator_visibility(appreciations, contributions) -> np.ndarray:
    """Appreciations per contribution, scaled by the population's best.

    Users with no contributions get 0; the ratio is clamped into [0, 1]
    so a tiny contributor with outsized appreciation cannot exceed the
    ceiling.
    """
    apprec = np.asarray(appreciations, dtype=np.float64)
    contrib = np.asarray(contributions, dtype=np.float64)
    if apprec.shape != contrib.shape:
        raise ValueError("appreciation and contribution arrays must align")
    if apprec.size and (apprec.min() < 0 or contrib.min() < 0):
        raise ValueError("counts must be non-negative")
    top = apprec.max() if apprec.size else 0.0
    out = np.zeros_like(apprec)
    if top <= 0:
        return out
    active = contrib > 0
    out[active] = apprec[active] / (top * contrib[active])
    return np.clip(out, 0.0, 1.0)


def indicator_fcontr(feedback_sums) -> np.ndarray:
    """Total feedback received, scaled by the population maximum."""
    return indicator_fendors(feedback_sums)


def indicator_frev(rf: ReviewFeedback) -> np.ndarray:
    """Per-review feedback scaled by the best-rated review of the same item.

    Returns values aligned with the rating store's canonical order; items
    whose reviews drew no feedback at all yield 0 for every review.
    """
    store, totals = rf.store, rf.totals()
    item_max = np.zeros(store.num_items, dtype=np.int64)
    np.maximum.at(item_max, store.item_idx, totals)
    denom = item_max[store.item_idx].astype(np.float64)
    totals = totals.astype(np.float64)
    out = np.zeros_like(totals)
    nz = denom > 0
    out[nz] = totals[nz] / denom[nz]
    return out


@dataclass(frozen=True)
class TrustProfiles:
    """Facet values for one dataset: per-user vectors plus per-review scores.

    ``frev`` aligns with ``store``'s canonical rating order.  A user who
    did not rate an item has review score 0 for it by convention.
    """

    store: RatingStore
    vectors: Mapping[str, np.ndarray]
    frev: np.ndarray

    def __post_init__(self):
        for name, vec in self.vectors.items():
            if name not in UNIDIMENSIONAL_FACETS:
                raise ValueError(f"unknown facet {name!r}")
            if vec.shape != (self.store.num_users,):
                raise ValueError(f"facet {name!r} must have one value per user")
            vec.setflags(write=False)
        if self.frev.shape != (len(self.store),):
            raise ValueError("frev must align with the rating store")
        self.frev.setflags(write=False)

    def frev_at(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Review score of ``users[n]`` for ``items[n]``, for each n."""
        users = check_handles(users, self.store.num_users, "user", UnknownUser)
        items = check_handles(items, self.store.num_items, "item", IndexError)
        at = self.store.positions(users, items)
        if self.frev.size == 0:
            return np.zeros(users.size, dtype=np.float64)
        out = self.frev[at]  # where there is no rating, at is -1: set to 0 below
        out[at < 0] = 0.0
        return out

    def frev_of(self, v: int, i: int) -> float:
        return float(self.frev_at(np.array([v]), np.array([i]))[0])


@dataclass(frozen=True)
class FacetWeights:
    """Fusion weights per facet name, plus how relatedness is measured.

    ``weights`` may mention any unidimensional facet, "frev" and "rel"; a
    facet the profiles lack, as "fendors" and "fcontr" on every built-in
    profile, drops out of the fusion.  A positive "rel" weight requires a
    relatedness mode other than "none".  Equal weights hash equal, so
    configurations can share the trust they fuse.
    """

    weights: Mapping[str, float] = field(default_factory=dict)
    rel_mode: str = "none"

    def __post_init__(self):
        if self.rel_mode not in REL_MODES:
            raise ValueError(f"unknown rel mode {self.rel_mode!r}")
        known = set(UNIDIMENSIONAL_FACETS) | {"frev", "rel"}
        for name, w in self.weights.items():
            if name not in known:
                raise ValueError(f"unknown facet {name!r}")
            if not 0.0 <= float(w) <= 1.0:
                raise ValueError(f"weight for {name!r} must lie in [0, 1]")
        if self.weights.get("rel", 0.0) > 0 and self.rel_mode == "none":
            raise ValueError("positive rel weight requires a rel mode")

    def __hash__(self) -> int:
        return hash((frozenset(self.weights.items()), self.rel_mode))

    def active(self) -> dict[str, float]:
        return {n: float(w) for n, w in self.weights.items() if w > 0}


def build_yelp_profiles(d: Dataset) -> TrustProfiles:
    """Facets for a Yelp-shaped dataset.

    elite years and fans are endorsement counts; compliments double as an
    endorsement count (lup) and as the appreciation side of visibility,
    with reviews+tips as the contribution side; review and tip feedback
    feeds the contribution facet.
    """
    if d.provenance not in ("yelp", "synthetic"):
        raise WrongProvenance(f"expected a yelp-shaped dataset, got {d.provenance!r}")
    fb = d.feedback
    compliments = fb.total(COMPLIMENTS)
    contributions = fb.total(CONTRIBUTIONS)
    received = fb.total(RECEIVED_FEEDBACK)
    vectors = {
        "elite": indicator_fendors(fb.col("elite_years")),
        "lup": indicator_fendors(compliments),
        "opleader": indicator_fendors(fb.col("fans")),
        "vis": indicator_visibility(compliments, contributions),
        "fb": indicator_fcontr(received),
    }
    return TrustProfiles(d.ratings, vectors, indicator_frev(d.review_feedback))


def build_librarything_profiles(d: Dataset) -> TrustProfiles:
    """Facets for LibraryThing: helpfulness only, no platform awards."""
    if d.provenance != "librarything":
        raise WrongProvenance(
            f"expected a librarything dataset, got {d.provenance!r}"
        )
    vectors = {"fb": indicator_fcontr(d.feedback.col("nhelpful_total"))}
    return TrustProfiles(d.ratings, vectors, indicator_frev(d.review_feedback))


def build_profiles(d: Dataset) -> TrustProfiles:
    if d.provenance == "librarything":
        return build_librarything_profiles(d)
    return build_yelp_profiles(d)


class Fusion:
    """Trust fused as the module docstring describes, vectorized over pairs.

    Building one is O(facets): the per-user facets are blended for the
    candidates a call asks about, in sorted facet order, and review
    scores come with the call, so a caller decides which ratings they
    belong to (the full data's or a training store's).
    """

    def __init__(self, profiles: TrustProfiles, graph: SocialGraph, weights: FacetWeights):
        self.profiles = profiles
        self.graph = graph
        self.rel_mode = weights.rel_mode
        active = weights.active()
        self._w_rel = active.pop("rel", 0.0)
        self._w_frev = active.pop("frev", 0.0)
        self._unidim = sorted((n, w) for n, w in active.items() if n in profiles.vectors)
        self._w_total = self._w_rel + self._w_frev + sum(w for _, w in self._unidim)
        self.empty = self._w_total == 0.0  # no usable facet carries weight

    def trust(
        self, users: np.ndarray, cands: np.ndarray, pair_at: np.ndarray, frev: np.ndarray | None
    ) -> np.ndarray:
        """Trust of ``cands[pair_at[n]]`` from ``users[pair_at[n]]``'s view, for each entry n.

        ``frev`` is each entry's review score; it is read only when
        review feedback carries weight.
        """
        if self.empty:
            raise AllWeightsZero("no usable facet carries positive weight")
        static = np.zeros(cands.size, dtype=np.float64)
        for name, w in self._unidim:
            static += w * self.profiles.vectors[name][cands]
        t = static[pair_at]
        if self._w_frev > 0:
            t += self._w_frev * frev
        if self._w_rel > 0:
            rel = relatedness(self.graph, users, cands, self.rel_mode)
            t += self._w_rel * rel[pair_at]
        return t / self._w_total


def fuse_trust(
    profiles: TrustProfiles,
    graph: SocialGraph,
    weights: FacetWeights,
    u: int,
    v: int,
    i: int,
) -> float:
    """Weighted mean of v's facet values from u's point of view for item i.

    One pair of a :class:`Fusion`, so a call costs O(facets) plus one
    rating search.  Raises AllWeightsZero when nothing is left to fuse.
    """
    if u == v and "rel" in weights.active():
        raise ValueError("relatedness is defined for distinct users")
    users = check_handles([u], profiles.store.num_users, "user", UnknownUser)
    cands = check_handles([v], profiles.store.num_users, "user", UnknownUser)
    frev = profiles.frev_at(cands, np.array([i])) if "frev" in weights.active() else None
    fusion = Fusion(profiles, graph, weights)
    return float(fusion.trust(users, cands, np.zeros(1, dtype=np.int64), frev)[0])
