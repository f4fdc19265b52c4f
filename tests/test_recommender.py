"""Similarity, influence blending, neighbor selection and prediction."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

from trustcf import (
    FacetWeights,
    InfluenceConfig,
    PredictionKind,
    RatingStore,
    SocialGraph,
    TrainedModel,
    TrustProfiles,
    build_yelp_profiles,
    config_names,
    make_config,
    pearson,
)
from trustcf.errors import UnknownConfiguration, UnknownUser
from trustcf.recommender import _pearson_pairs, block_candidates, score_block

import reference
from conftest import random_dataset


def store_from_rows(num_items: int, rows: dict[int, dict[int, float]]) -> RatingStore:
    users, items, values = [], [], []
    for u, rated in rows.items():
        for i, r in rated.items():
            users.append(u)
            items.append(i)
            values.append(r)
    return RatingStore(max(rows) + 1, num_items, users, items, values)


class TestPearson:
    def test_known_value(self):
        store = store_from_rows(3, {0: {0: 1, 1: 2, 2: 3}, 1: {0: 2, 1: 2, 2: 3}})
        assert pearson(store, 0, 1) == pytest.approx(np.sqrt(3) / 2)

    def test_tiny_fixture_values(self, tiny):
        store = tiny.ratings
        assert pearson(store, 0, 1) == pytest.approx(12 / np.sqrt(156))
        # carol rated alice's co-rated items identically: zero variance
        assert pearson(store, 0, 2) == 0.0
        # alice and dave share only one item
        assert pearson(store, 0, 3) == 0.0

    def test_negative_correlation_clamped(self):
        store = store_from_rows(3, {0: {0: 1, 1: 2, 2: 3}, 1: {0: 3, 1: 2, 2: 1}})
        assert pearson(store, 0, 1) == 0.0

    def test_perfect_agreement(self):
        store = store_from_rows(3, {0: {0: 1, 1: 3, 2: 5}, 1: {0: 2, 1: 3, 2: 4}})
        assert pearson(store, 0, 1) == pytest.approx(1.0)

    def test_subset_means_matter(self):
        # u's overall mean is 3, but over the co-rated pair it is 1.5
        store = store_from_rows(
            4, {0: {0: 1, 1: 2, 2: 5, 3: 4}, 1: {0: 2, 1: 4}})
        x = np.array([1.0, 2.0])
        y = np.array([2.0, 4.0])
        expect = scipy.stats.pearsonr(x, y).statistic
        assert pearson(store, 0, 1) == pytest.approx(expect)

    def test_against_scipy_on_random_stores(self):
        rng = np.random.default_rng(51)
        checked = 0
        for _ in range(40):
            ni = int(rng.integers(2, 9))
            a = rng.choice([1, 2, 3, 4, 5], size=ni).astype(float)
            b = rng.choice([1, 2, 3, 4, 5], size=ni).astype(float)
            store = store_from_rows(
                ni,
                {0: dict(enumerate(a)), 1: dict(enumerate(b))},
            )
            if a.std() == 0 or b.std() == 0:
                assert pearson(store, 0, 1) == 0.0
                continue
            r = scipy.stats.pearsonr(a, b).statistic
            assert pearson(store, 0, 1) == pytest.approx(max(min(r, 1.0), 0.0))
            checked += 1
        assert checked > 10


def micro_model(beta: float, fb=(0.0, 0.5, 0.25), sim="pearson",
                neighbor_count=50) -> TrainedModel:
    """Three users on three items; handles u=0 rates a,b; v1, v2 rate all.

    All three user means are exactly 3, so deviations on the target item
    (handle 2) are +1 for v1 and -1 for v2.
    """
    store = store_from_rows(3, {
        0: {0: 2.0, 1: 4.0},
        1: {0: 3.0, 1: 2.0, 2: 4.0},
        2: {0: 4.0, 1: 3.0, 2: 2.0},
    })
    profiles = TrustProfiles(
        store, {"fb": np.array(fb, dtype=float)}, np.zeros(len(store)))
    config = InfluenceConfig(
        name="probe", similarity_mode=sim,
        facet_weights=FacetWeights({"fb": 1.0}),
        beta=beta, neighbor_count=neighbor_count)
    return TrainedModel(store, profiles, SocialGraph(3, []), config)


class TestInfluence:
    def test_blend(self):
        # sigma 0.8 from ratings, trust 0.5 from the facet, beta 0.1
        store = store_from_rows(4, {
            0: {0: 1.0, 1: 2.0, 2: 4.0, 3: 5.0},
            1: {0: 2.0, 1: 1.0, 2: 5.0, 3: 4.0},
        })
        assert pearson(store, 0, 1) == pytest.approx(0.8)
        profiles = TrustProfiles(
            store, {"fb": np.array([0.0, 0.5])}, np.zeros(len(store)))
        config = InfluenceConfig(
            name="probe", similarity_mode="pearson",
            facet_weights=FacetWeights({"fb": 1.0}), beta=0.1)
        model = TrainedModel(store, profiles, SocialGraph(2, []), config)
        assert model.influence(0, 1, 0) == pytest.approx(0.53)

    def test_beta_one_is_similarity_alone(self):
        model = micro_model(beta=1.0)
        got = model.influence(0, 1, 2)
        assert got == pytest.approx(pearson(model.train, 0, 1))

    def test_beta_zero_is_trust_alone(self):
        model = micro_model(beta=0.0)
        assert model.influence(0, 1, 2) == pytest.approx(0.5)
        assert model.influence(0, 2, 2) == pytest.approx(0.25)

    def test_unweighted_model_degenerates_to_scaled_similarity(self):
        store = store_from_rows(3, {0: {0: 1, 1: 2, 2: 3}, 1: {0: 2, 1: 2, 2: 3}})
        profiles = TrustProfiles(store, {}, np.zeros(len(store)))
        config = InfluenceConfig(
            name="probe", similarity_mode="pearson",
            facet_weights=FacetWeights({"fb": 1.0}), beta=0.4)
        model = TrainedModel(store, profiles, SocialGraph(2, []), config)
        assert model.influence(0, 1, 0) == pytest.approx(0.4 * np.sqrt(3) / 2)

    def test_review_score_is_the_training_side(self, tiny):
        """A held-out rating contributes no review score, as in prediction."""
        alice, bob, apple = 0, 1, 0
        profiles = build_yelp_profiles(tiny)
        held_out = (tiny.ratings.user_idx == bob) & (tiny.ratings.item_idx == apple)
        keep = ~held_out
        train = RatingStore(
            tiny.num_users, tiny.num_items, tiny.ratings.user_idx[keep],
            tiny.ratings.item_idx[keep], tiny.ratings.value[keep])
        config = InfluenceConfig(
            name="probe", similarity_mode="pearson",
            facet_weights=FacetWeights({"frev": 1.0}), beta=0.0)
        full = TrainedModel(tiny.ratings, profiles, tiny.social, config)
        fold = TrainedModel(train, profiles, tiny.social, config)
        assert full.influence(alice, bob, apple) == 1.0
        assert fold.influence(alice, bob, apple) == 0.0
        assert bob not in [v for v, _ in fold.select_neighbors(alice, apple)]

    def test_weight_scale_invariance(self, tiny):
        """Halving every facet weight leaves the fused mean untouched."""
        profiles = build_yelp_profiles(tiny)
        full = FacetWeights({"fb": 1.0, "frev": 1.0, "rel": 1.0}, rel_mode="direct")
        half = FacetWeights({"fb": 0.5, "frev": 0.5, "rel": 0.5}, rel_mode="direct")
        a = TrainedModel(tiny.ratings, profiles, tiny.social, InfluenceConfig(
            name="a", similarity_mode="pearson", facet_weights=full, beta=0.3))
        b = TrainedModel(tiny.ratings, profiles, tiny.social, InfluenceConfig(
            name="b", similarity_mode="pearson", facet_weights=half, beta=0.3))
        for u in range(5):
            for v in range(5):
                if u == v:
                    continue
                assert a.influence(u, v, 0) == pytest.approx(b.influence(u, v, 0))

    def test_a_user_is_not_their_own_candidate(self, tiny):
        """As block_candidates never lists a user as their own candidate,
        influence(u, u, i) raises under every configuration, also for a
        user with friends."""
        profiles = build_yelp_profiles(tiny)
        for name in config_names():
            model = TrainedModel(tiny.ratings, profiles, tiny.social, make_config(name))
            for u in range(tiny.num_users):
                with pytest.raises(ValueError, match="own candidate"):
                    model.influence(u, u, 0)


class TestNeighborSelection:
    def test_positive_influence_only(self, tiny):
        model = TrainedModel(
            tiny.ratings, build_yelp_profiles(tiny), tiny.social,
            make_config("U2UCF"))
        # erin's overlap with every apple rater is a single item
        assert model.select_neighbors(4, 0) == []

    def test_order_and_tie_break(self):
        store = store_from_rows(2, {
            0: {0: 3.0},
            1: {0: 2.0, 1: 4.0},
            2: {0: 5.0, 1: 4.0},
            3: {0: 1.0, 1: 4.0},
        })
        profiles = TrustProfiles(
            store,
            {"fb": np.array([0.0, 0.4, 0.9, 0.4])},
            np.zeros(len(store)),
        )
        config = InfluenceConfig(
            name="probe", similarity_mode="pearson",
            facet_weights=FacetWeights({"fb": 1.0}), beta=0.0)
        model = TrainedModel(store, profiles, SocialGraph(4, []), config)
        got = model.select_neighbors(0, 1)
        # descending influence; users 1 and 3 tie and sort by handle
        assert [v for v, _ in got] == [2, 1, 3]
        assert [w for _, w in got] == pytest.approx([0.9, 0.4, 0.4])

    def test_truncation(self):
        model = micro_model(beta=0.0, neighbor_count=1)
        got = model.select_neighbors(0, 2)
        assert got == [(1, pytest.approx(0.5))]


class TestPredict:
    def test_mean_centered_weighted_value(self):
        model = micro_model(beta=0.0)
        got = model.predict(0, 2)
        # 3 + (0.5 * +1 + 0.25 * -1) / 0.75
        assert got.value == pytest.approx(3 + 1 / 3)
        assert got.kind is PredictionKind.MODEL

    def test_clip_high(self):
        store = store_from_rows(3, {
            0: {0: 5.0, 1: 4.0},
            1: {0: 1.0, 2: 5.0},
        })
        profiles = TrustProfiles(
            store, {"fb": np.array([0.0, 1.0])}, np.zeros(len(store)))
        config = InfluenceConfig(
            name="probe", similarity_mode="pearson",
            facet_weights=FacetWeights({"fb": 1.0}), beta=0.0)
        model = TrainedModel(store, profiles, SocialGraph(2, []), config)
        # 4.5 + (5 - 3) would be 6.5
        assert model.predict(0, 2).value == 5.0

    def test_clip_low(self):
        store = store_from_rows(3, {
            0: {0: 1.0, 1: 2.0},
            1: {0: 5.0, 2: 1.0},
        })
        profiles = TrustProfiles(
            store, {"fb": np.array([0.0, 1.0])}, np.zeros(len(store)))
        config = InfluenceConfig(
            name="probe", similarity_mode="pearson",
            facet_weights=FacetWeights({"fb": 1.0}), beta=0.0)
        model = TrainedModel(store, profiles, SocialGraph(2, []), config)
        # 1.5 + (1 - 3) would be -0.5
        assert model.predict(0, 2).value == 1.0

    def test_fallback_to_user_mean(self, tiny):
        model = TrainedModel(
            tiny.ratings, build_yelp_profiles(tiny), tiny.social,
            make_config("U2UCF"))
        got = model.predict(4, 2)  # erin on corn
        assert got.kind is PredictionKind.FALLBACK
        assert got.value == pytest.approx(4.0)

    def test_unrated_item_falls_back(self):
        store2 = store_from_rows(4, {
            0: {0: 2.0, 1: 4.0},
            1: {0: 3.0, 1: 2.0, 2: 4.0},
            2: {0: 4.0, 1: 3.0, 2: 2.0},
        })
        profiles = TrustProfiles(
            store2, {"fb": np.array([0.0, 0.5, 0.25])}, np.zeros(len(store2)))
        config = InfluenceConfig(
            name="probe", similarity_mode="pearson",
            facet_weights=FacetWeights({"fb": 1.0}), beta=0.0)
        model = TrainedModel(store2, profiles, SocialGraph(3, []), config)
        got = model.predict(0, 3)
        assert got.kind is PredictionKind.FALLBACK
        assert got.value == pytest.approx(3.0)

    def test_unknown_user(self, tiny):
        model = TrainedModel(
            tiny.ratings, build_yelp_profiles(tiny), tiny.social,
            make_config("MTR"))
        with pytest.raises(UnknownUser):
            model.predict(17, 0)
        with pytest.raises(UnknownUser):
            model.predict(-1, 0)

    def test_unknown_item(self, tiny):
        profiles = build_yelp_profiles(tiny)
        for name in config_names():
            model = TrainedModel(tiny.ratings, profiles, tiny.social, make_config(name))
            for i in (-1, tiny.num_items, 99):
                for call in (model.influence, lambda u, v, i: model.predict(u, i)):
                    with pytest.raises(IndexError, match="item handle out of range"):
                        call(0, 1, i)

    def test_user_without_training_ratings(self):
        store = RatingStore(3, 2, [0, 1], [0, 0], [3.0, 4.0])
        profiles = TrustProfiles(store, {}, np.zeros(2))
        model = TrainedModel(store, profiles, SocialGraph(3, []),
                             make_config("U2UCF"))
        with pytest.raises(UnknownUser):
            model.predict(2, 0)

    def test_matches_naive_reference_on_random_data(self):
        rng = np.random.default_rng(52)
        for trial in range(10):
            d = random_dataset(rng, max_users=20, max_items=12, max_ratings=80)
            profiles = build_yelp_profiles(d)
            name = config_names()[trial % len(config_names())]
            cfg = make_config(name, beta=0.3, neighbor_count=5)
            model = TrainedModel(d.ratings, profiles, d.social, cfg)
            by_user, by_item, friends = reference.plain_views(d)
            vectors, frev = reference.plain_profiles(profiles)
            for _ in range(20):
                u = int(rng.integers(0, d.ratings.num_users))
                i = int(rng.integers(0, d.ratings.num_items))
                expect = reference.naive_predict(
                    by_user, by_item, friends, vectors, frev, cfg, u, i)
                if expect is None:
                    with pytest.raises(UnknownUser):
                        model.predict(u, i)
                    continue
                value, is_model = expect
                got = model.predict(u, i)
                assert got.value == pytest.approx(value, abs=1e-9)
                assert (got.kind is PredictionKind.MODEL) == is_model


def oracle_configs(rng) -> list[InfluenceConfig]:
    """Every similarity mode, several facet settings and betas."""
    return [
        make_config("U2UCF"),
        make_config("MTR", beta=float(rng.random())),
        make_config("MTR-S", beta=float(rng.random()), neighbor_count=2),
        make_config("MTRTrust1", beta=float(rng.random())),
        make_config("MTRTrust2", beta=float(rng.random())),
        make_config("U2USocial"),
        InfluenceConfig(
            name="frev-rel", similarity_mode="pearson",
            facet_weights=FacetWeights(
                {"frev": 0.5, "rel": 1.0}, rel_mode="intersection"),
            beta=float(rng.random()), neighbor_count=3),
    ]


class TestScoreBlock:
    def test_each_row_equals_its_model_scored_alone(self):
        """Models scored together share sigma and trust, and change nothing."""
        rng = np.random.default_rng(71)
        seen = dict(chosen=0, folds=0, shared=0)
        for trial in range(20):
            d = random_dataset(rng, max_users=30, max_items=15, max_ratings=200)
            store, profiles = d.ratings, build_yelp_profiles(d)
            models = [TrainedModel(store, profiles, d.social, cfg)
                      for cfg in oracle_configs(rng)]
            slots = rng.choice(len(store), size=int(rng.integers(1, len(store) + 1)))
            users, items = store.user_idx[slots], store.item_idx[slots]
            if trial % 2:  # each slot in its own fold of the full store, as a fold group
                num_folds = int(rng.integers(2, 4))
                folds = rng.integers(0, num_folds, size=len(store))
                means = store.held_out_means(folds, num_folds)
                c = block_candidates(store, users, items, folds[slots], folds, means)
                seen["folds"] += 1
            else:
                c = block_candidates(store, users, items)
            sigma = _pearson_pairs(store, c.pair_users, c.pair_cands)[c.pair_at]
            infl, pred = score_block(c, models, sigma)
            entries = c.slot_at.size
            for n, model in enumerate(models):
                alone_infl, alone = score_block(c, [model], sigma)
                assert np.array_equal(infl[n], alone_infl[0]), n
                assert np.array_equal(pred.values[n], alone.values[0], equal_nan=True), n
                assert np.array_equal(pred.is_model[n], alone.is_model[0]), n
                mine = pred.chosen[pred.chosen // entries == n] - n * entries
                assert np.array_equal(mine, alone.chosen), n
                seen["chosen"] += alone.chosen.size
            seen["shared"] += len(models) - len({m.config.facet_weights for m in models})
        assert min(seen.values()) > 0, seen

    def test_a_store_equal_to_the_profiles_store_scores_the_same(self):
        """The model's review scores come from the profiles' own array, or
        from one lookup per rating: the results are the same bits."""
        rng = np.random.default_rng(72)
        weighted = 0
        for _ in range(6):
            d = random_dataset(rng, max_users=12, max_items=8, max_ratings=60)
            profiles = build_yelp_profiles(d)
            store = d.ratings
            copy = RatingStore(store.num_users, store.num_items, store.user_idx,
                               store.item_idx, store.value)
            assert copy is not profiles.store
            weighted += bool(profiles.frev.any())
            known = np.flatnonzero(store.user_rating_counts())
            all_items = np.arange(store.num_items)
            for cfg in oracle_configs(rng):
                same = TrainedModel(store, profiles, d.social, cfg)
                equal = TrainedModel(copy, profiles, d.social, cfg)
                for u in known.tolist():
                    for a, b in zip(same.predict_items(u, all_items),
                                    equal.predict_items(u, all_items)):
                        assert np.array_equal(a, b)
                for _ in range(10):
                    u = int(rng.choice(known))
                    v = int(rng.integers(store.num_users))
                    i = int(rng.integers(store.num_items))
                    assert same.select_neighbors(u, i) == equal.select_neighbors(u, i)
                    if v != u:  # a user is not their own candidate
                        assert same.influence(u, v, i) == equal.influence(u, v, i)
        assert weighted > 0


class TestCatalogue:
    def test_all_names_materialize(self):
        assert len(config_names()) == 10
        for name in config_names():
            cfg = make_config(name, beta=0.2, neighbor_count=7)
            assert cfg.name == name
            assert cfg.neighbor_count == 7

    def test_pure_baselines_pin_beta(self):
        assert make_config("U2UCF", beta=0.2).beta == 1.0
        assert make_config("U2USocial", beta=0.2).beta == 1.0
        assert make_config("MTR", beta=0.2).beta == 0.2

    def test_facet_sets(self):
        awards = {"elite", "lup", "opleader", "vis"}
        expect = {
            "U2UCF": set(),
            "U2USocial": set(),
            "MTR-U": {"fb", "frev", "rel"},
            "MTR-S": awards | {"fb", "frev"},
            "MTR-F": awards | {"rel"},
            "MTR-FS": awards,
            "MTR-US": {"fb", "frev"},
            "MTR": awards | {"fb", "frev", "rel"},
            "MTRTrust1": awards | {"fb", "frev"},
            "MTRTrust2": awards | {"fb", "frev"},
        }
        for name, facets in expect.items():
            cfg = make_config(name)
            assert set(cfg.facet_weights.active()) == facets, name

    def test_similarity_modes(self):
        assert make_config("U2UCF").similarity_mode == "pearson"
        assert make_config("U2USocial").similarity_mode == "rel_intersection"
        assert make_config("MTRTrust1").similarity_mode == "rel_direct"
        assert make_config("MTRTrust2").similarity_mode == "rel_intersection"
        for name in ("MTR-U", "MTR-S", "MTR-F", "MTR-FS", "MTR-US", "MTR"):
            assert make_config(name).similarity_mode == "pearson"

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(UnknownConfiguration, match="U2UCF"):
            make_config("MTR-XYZ")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InfluenceConfig(name="x", similarity_mode="cosine")
        with pytest.raises(ValueError):
            InfluenceConfig(name="x", similarity_mode="pearson", beta=1.5)
        with pytest.raises(ValueError):
            InfluenceConfig(name="x", similarity_mode="pearson", neighbor_count=0)
