"""Facet indicators, profile construction and trust fusion."""

from __future__ import annotations

import numpy as np
import pytest

from trustcf import (
    FacetWeights,
    RatingStore,
    SocialGraph,
    TrustProfiles,
    build_librarything_profiles,
    build_profiles,
    build_yelp_profiles,
    fuse_trust,
    indicator_fcontr,
    indicator_fendors,
    indicator_frev,
    indicator_visibility,
    make_dataset,
)
from trustcf.errors import AllWeightsZero, WrongProvenance
from trustcf.recommender import InfluenceConfig, TrainedModel
from trustcf.trust import UNIDIMENSIONAL_FACETS, Fusion

import reference
from conftest import random_dataset


class TestIndicators:
    def test_fendors_scales_by_max(self):
        got = indicator_fendors([5, 20, 10, 0])
        assert got == pytest.approx([0.25, 1.0, 0.5, 0.0])

    def test_fendors_all_zero_population(self):
        assert (indicator_fendors([0, 0, 0]) == 0.0).all()

    def test_fendors_rejects_negative(self):
        with pytest.raises(ValueError):
            indicator_fendors([1, -2])

    def test_fcontr_is_the_same_scaling(self):
        assert indicator_fcontr([10, 40]) == pytest.approx([0.25, 1.0])
        assert indicator_fcontr([30, 120, 0]) == pytest.approx([0.25, 1.0, 0.0])

    def test_visibility(self):
        got = indicator_visibility([10, 100, 0], [5, 1, 3])
        assert got == pytest.approx([0.02, 1.0, 0.0])

    def test_visibility_no_contributions_means_zero(self):
        got = indicator_visibility([10, 100], [0, 1])
        assert got[0] == 0.0

    def test_visibility_clamp(self):
        # fractional contributions can push the ratio past 1
        got = indicator_visibility([50.0, 100.0], [0.25, 1.0])
        assert got == pytest.approx([1.0, 1.0])

    def test_visibility_shape_mismatch(self):
        with pytest.raises(ValueError):
            indicator_visibility([1, 2], [1])

    def test_frev_per_item_scaling(self, tiny):
        profiles = TrustProfiles(
            tiny.ratings, {}, indicator_frev(tiny.review_feedback))
        apple, bread, corn, date = range(4)
        alice, bob, carol, dave, erin = range(5)
        assert profiles.frev_of(alice, apple) == pytest.approx(1 / 3)
        assert profiles.frev_of(bob, apple) == pytest.approx(1.0)
        assert profiles.frev_of(carol, apple) == pytest.approx(1 / 6)
        assert profiles.frev_of(dave, apple) == pytest.approx(0.5)
        # erin never rated apple
        assert profiles.frev_of(erin, apple) == 0.0
        assert profiles.frev_of(alice, bread) == pytest.approx(0.5)
        assert profiles.frev_of(erin, bread) == pytest.approx(1.0)
        # nobody's corn review drew feedback
        assert profiles.frev_of(alice, corn) == 0.0
        assert profiles.frev_of(bob, corn) == 0.0
        assert profiles.frev_of(bob, date) == pytest.approx(1.0)
        assert profiles.frev_of(dave, date) == 0.0

    def test_indicator_ranges_and_argmax(self):
        """Every indicator lands in [0, 1]; a nonzero population hits 1."""
        rng = np.random.default_rng(41)
        for _ in range(200):
            counts = rng.integers(0, 50, size=int(rng.integers(1, 30)))
            got = indicator_fendors(counts)
            assert got.min() >= 0.0 and got.max() <= 1.0
            if counts.max() > 0:
                assert got[counts.argmax()] == 1.0
                assert got.max() == 1.0


class TestTrustProfiles:
    def test_unknown_facet_rejected(self, tiny):
        with pytest.raises(ValueError, match="unknown facet"):
            TrustProfiles(
                tiny.ratings,
                {"bogus": np.zeros(5)},
                np.zeros(len(tiny.ratings)),
            )

    def test_shape_validation(self, tiny):
        with pytest.raises(ValueError):
            TrustProfiles(
                tiny.ratings, {"fb": np.zeros(3)}, np.zeros(len(tiny.ratings)))
        with pytest.raises(ValueError):
            TrustProfiles(tiny.ratings, {}, np.zeros(2))

    def test_vectors_frozen(self, tiny):
        profiles = build_yelp_profiles(tiny)
        with pytest.raises(ValueError):
            profiles.vectors["fb"][0] = 9.0


class TestYelpProfiles:
    def test_facet_vectors(self, tiny):
        profiles = build_yelp_profiles(tiny)
        assert profiles.vectors["elite"] == pytest.approx([0.5, 1, 0, 0, 0])
        assert profiles.vectors["lup"] == pytest.approx([0, 1, 0.5, 0, 0])
        assert profiles.vectors["opleader"] == pytest.approx([0.5, 1, 0, 0.25, 0])
        # compliments [0,4,2,0,0] over 4 * contributions [3,5,3,4,1]
        assert profiles.vectors["vis"] == pytest.approx([0, 0.2, 1 / 6, 0, 0])
        # received feedback [3,12,5,3,2] scaled by 12
        assert profiles.vectors["fb"] == pytest.approx(
            [0.25, 1, 5 / 12, 0.25, 1 / 6])

    def test_rejects_librarything(self):
        d = make_dataset(provenance="librarything", ratings=[("u", "w", 3.0)])
        with pytest.raises(WrongProvenance):
            build_yelp_profiles(d)


class TestLibraryThingProfiles:
    def make(self):
        return make_dataset(
            provenance="librarything",
            ratings=[("u1", "w1", 4.0), ("u2", "w1", 2.0)],
            user_counters={"nhelpful_total": {"u1": 10, "u2": 40}},
            review_counters={"nhelpful": {("u1", "w1"): 10, ("u2", "w1"): 40}},
        )

    def test_single_facet(self):
        profiles = build_librarything_profiles(self.make())
        assert set(profiles.vectors) == {"fb"}
        assert profiles.vectors["fb"] == pytest.approx([0.25, 1.0])
        assert profiles.frev_of(0, 0) == pytest.approx(0.25)

    def test_rejects_yelp(self, tiny):
        with pytest.raises(WrongProvenance):
            build_librarything_profiles(tiny)

    def test_dispatch(self, tiny):
        assert set(build_profiles(tiny).vectors) == {
            "elite", "lup", "opleader", "vis", "fb"}
        assert set(build_profiles(self.make()).vectors) == {"fb"}

    def test_fendors_and_fcontr_are_never_supplied(self, tiny):
        """Neither kind of profile supplies fendors or fcontr, so weights on
        them alone leave fusion with no facet to fuse."""
        weights = FacetWeights({"fendors": 1.0, "fcontr": 1.0})
        for d in (tiny, self.make()):
            assert Fusion(build_profiles(d), d.social, weights).empty


class TestFacetWeights:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown facet"):
            FacetWeights({"charisma": 1.0})

    def test_weight_range(self):
        with pytest.raises(ValueError):
            FacetWeights({"fb": 1.5})
        with pytest.raises(ValueError):
            FacetWeights({"fb": -0.1})

    def test_rel_needs_a_mode(self):
        with pytest.raises(ValueError, match="rel"):
            FacetWeights({"rel": 1.0})
        FacetWeights({"rel": 1.0}, rel_mode="direct")  # fine
        FacetWeights({"rel": 0.0})  # zero weight never needs a mode

    def test_active_drops_zeros(self):
        fw = FacetWeights({"fb": 0.5, "elite": 0.0, "frev": 1.0})
        assert fw.active() == {"fb": 0.5, "frev": 1.0}


def lone_pair_profiles(**facets):
    """Two users, one shared item; facet values given for user 1."""
    store = RatingStore(2, 1, [0, 1], [0, 0], [3.0, 4.0])
    vectors = {
        name: np.array([0.0, value]) for name, value in facets.items()
    }
    return TrustProfiles(store, vectors, np.zeros(2)), SocialGraph(2, [(0, 1)])


class TestFuseTrust:
    def test_plain_mean(self):
        profiles, graph = lone_pair_profiles(elite=0.2, fb=0.4)
        w = FacetWeights({"elite": 1.0, "fb": 1.0})
        assert fuse_trust(profiles, graph, w, 0, 1, 0) == pytest.approx(0.3)

    def test_weighted_mean(self):
        profiles, graph = lone_pair_profiles(elite=0.2, fb=0.4)
        w = FacetWeights({"elite": 1.0, "fb": 0.5})
        assert fuse_trust(profiles, graph, w, 0, 1, 0) == pytest.approx(0.4 / 1.5)

    def test_missing_facet_dropped_from_both_sides(self):
        profiles, graph = lone_pair_profiles(fb=0.4)
        w = FacetWeights({"elite": 1.0, "fb": 1.0})
        # elite is weighted but not provided: result is fb alone, not fb/2
        assert fuse_trust(profiles, graph, w, 0, 1, 0) == pytest.approx(0.4)

    def test_nothing_usable(self):
        profiles, graph = lone_pair_profiles(fb=0.4)
        with pytest.raises(AllWeightsZero):
            fuse_trust(profiles, graph, FacetWeights({"elite": 1.0}), 0, 1, 0)
        with pytest.raises(AllWeightsZero):
            fuse_trust(profiles, graph, FacetWeights({}), 0, 1, 0)

    def test_relatedness_and_review_facets(self, tiny):
        profiles = build_yelp_profiles(tiny)
        alice, bob, carol, dave = 0, 1, 2, 3
        apple = 0
        w = FacetWeights({"rel": 1.0}, rel_mode="direct")
        assert fuse_trust(profiles, tiny.social, w, alice, bob, apple) == 1.0
        assert fuse_trust(profiles, tiny.social, w, carol, dave, apple) == 0.0
        w = FacetWeights({"frev": 1.0})
        assert fuse_trust(profiles, tiny.social, w, alice, dave, apple) == 0.5

    def test_three_facet_average(self, tiny):
        profiles = build_yelp_profiles(tiny)
        w = FacetWeights({"fb": 1.0, "frev": 1.0, "rel": 1.0}, rel_mode="direct")
        alice, dave, apple = 0, 3, 0
        # fb .25, review score .5, not friends: (0.25 + 0.5 + 0) / 3
        got = fuse_trust(profiles, tiny.social, w, alice, dave, apple)
        assert got == pytest.approx(0.25)

    def test_ignores_u_when_rel_inactive(self, tiny):
        profiles = build_yelp_profiles(tiny)
        w = FacetWeights({"fb": 1.0, "frev": 1.0})
        got = [
            fuse_trust(profiles, tiny.social, w, u, 1, 0)
            for u in (0, 2, 3, 4)
        ]
        assert len(set(got)) == 1

    def test_bounds_property(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = random_dataset(rng)
            profiles = build_yelp_profiles(d)
            n = d.ratings.num_users
            names = list(profiles.vectors) + ["frev", "rel"]
            chosen = rng.choice(len(names), size=int(rng.integers(1, 4)),
                                replace=False)
            weights = {names[int(c)]: float(rng.random()) for c in chosen}
            fw = FacetWeights(weights, rel_mode="intersection")
            if not fw.active():
                continue
            for _ in range(10):
                u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
                items = d.ratings.items_of(v)[0]
                if not items.size:
                    continue
                i = int(items[0])
                t = fuse_trust(profiles, d.social, fw, u, v, i)
                assert 0.0 <= t <= 1.0

    def test_monotone_in_each_facet(self, tiny):
        """Raising one facet value never lowers the fused score."""
        rng = np.random.default_rng(43)
        base = build_yelp_profiles(tiny)
        w = FacetWeights({"elite": 0.7, "fb": 0.3})
        for _ in range(30):
            v = int(rng.integers(0, 5))
            bumped_vec = base.vectors["elite"].copy()
            bumped_vec[v] = min(1.0, bumped_vec[v] + float(rng.random()))
            bumped = TrustProfiles(
                tiny.ratings,
                {"elite": bumped_vec, "fb": base.vectors["fb"].copy()},
                base.frev.copy(),
            )
            lo = fuse_trust(base, tiny.social, w, 0, v, 0)
            hi = fuse_trust(bumped, tiny.social, w, 0, v, 0)
            assert hi >= lo - 1e-12


# every facet fusion understands; yelp profiles lack fendors and fcontr
_ALL_FACETS = UNIDIMENSIONAL_FACETS + ("frev", "rel")


class TestFusion:
    def test_fuse_trust_is_one_pair_of_the_model(self):
        """For every facet subset and rel mode, fuse_trust equals the
        influence of a beta-0 model exactly, and the naive oracle within
        rounding."""
        rng = np.random.default_rng(47)
        for _ in range(2):
            d = random_dataset(rng)
            profiles = build_profiles(d)
            _, _, friends = reference.plain_views(d)
            vectors, frev = reference.plain_profiles(profiles)
            raters = np.flatnonzero(d.ratings.user_rating_counts())
            if raters.size < 2:
                continue
            positions = rng.choice(len(d.ratings), size=min(3, len(d.ratings)), replace=False)
            pairs = []
            for pos in positions:
                v, i = int(d.ratings.user_idx[pos]), int(d.ratings.item_idx[pos])
                pairs.append((int(rng.choice(raters[raters != v])), v, i))
            for mask in range(2 ** len(_ALL_FACETS)):
                names = [n for b, n in enumerate(_ALL_FACETS) if mask >> b & 1]
                for rel_mode in ("direct", "intersection") if "rel" in names else ("none",):
                    weights = {n: float(rng.uniform(0.1, 1.0)) for n in names}
                    fw = FacetWeights(weights, rel_mode=rel_mode)
                    config = InfluenceConfig("probe", "pearson", fw, beta=0.0)
                    model = TrainedModel(d.ratings, profiles, d.social, config)
                    for u, v, i in pairs:
                        want = reference.naive_trust(
                            vectors, frev, friends, weights, rel_mode, u, v, i)
                        if want is None:
                            with pytest.raises(AllWeightsZero):
                                fuse_trust(profiles, d.social, fw, u, v, i)
                            assert model.influence(u, v, i) == 0.0
                            continue
                        got = fuse_trust(profiles, d.social, fw, u, v, i)
                        assert got == model.influence(u, v, i), (names, rel_mode)
                        assert got == pytest.approx(want, abs=1e-12), (names, rel_mode)

    def test_self_pair_rejected_only_when_rel_weighs(self, tiny):
        profiles = build_yelp_profiles(tiny)
        with pytest.raises(ValueError, match="distinct users"):
            fuse_trust(profiles, tiny.social,
                       FacetWeights({"rel": 1.0, "fb": 1.0}, rel_mode="direct"), 1, 1, 0)
        w = FacetWeights({"fb": 1.0})
        assert fuse_trust(profiles, tiny.social, w, 1, 1, 0) == profiles.vectors["fb"][1]
