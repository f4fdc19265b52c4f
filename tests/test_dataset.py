"""Dataset structures, filtering and summary statistics."""

from __future__ import annotations

import numpy as np
import pytest

from trustcf import (
    Interner,
    RatingStore,
    apply_filters,
    compute_stats,
    make_dataset,
)
from trustcf.canonical import datasets_equal
from trustcf.errors import UnknownUser

from conftest import build_tiny, random_dataset


class TestInterner:
    def test_roundtrip(self):
        interner = Interner()
        a = interner.intern("x")
        b = interner.intern("y")
        assert interner.intern("x") == a
        assert (a, b) == (0, 1)
        assert interner.external(a) == "x"
        assert interner.handle("y") == b
        assert len(interner) == 2
        assert "x" in interner and "z" not in interner

    def test_duplicate_seed_ids_rejected(self):
        with pytest.raises(ValueError):
            Interner(["a", "a"])


class TestRatingStore:
    def test_views_agree_on_the_same_multiset(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = random_dataset(rng)
            store = d.ratings
            from_users = sorted(
                (u, int(i), float(r))
                for u in range(store.num_users)
                for i, r in zip(*store.items_of(u))
            )
            from_items = sorted(
                (int(u), i, float(r))
                for i in range(store.num_items)
                for u, r, _ in [store.raters_of(i)]
                for u, r in zip(u, r)
            )
            assert from_users == from_items == sorted(store.triples())

    def test_positions_align_with_canonical_order(self):
        d = build_tiny()
        store = d.ratings
        for i in range(store.num_items):
            users, values, pos = store.raters_of(i)
            assert (store.user_idx[pos] == users).all()
            assert (store.item_idx[pos] == i).all()
            assert (store.value[pos] == values).all()
            assert list(users) == sorted(users)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RatingStore(2, 2, [0, 0], [1, 1], [3.0, 4.0])

    def test_rating_range_enforced(self):
        with pytest.raises(ValueError, match="lie in"):
            RatingStore(1, 1, [0], [0], [0.5])
        with pytest.raises(ValueError, match="lie in"):
            RatingStore(1, 1, [0], [0], [5.5])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rating_rejected(self, value):
        with pytest.raises(ValueError, match="lie in"):
            RatingStore(2, 1, [0, 1], [0, 0], [3.0, value])
        with pytest.raises(ValueError, match="lie in"):
            make_dataset(provenance="synthetic", ratings=[("u", "i", value)])

    def test_input_order_does_not_matter(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            store = random_dataset(rng).ratings
            shuffled = rng.permutation(len(store))
            again = RatingStore(store.num_users, store.num_items, store.user_idx[shuffled],
                                store.item_idx[shuffled], store.value[shuffled])
            for name in ("user_idx", "item_idx", "value", "_u_ptr", "_i_order", "_i_ptr"):
                assert np.array_equal(getattr(again, name), getattr(store, name)), name
            assert np.array_equal(again.user_means(), store.user_means(), equal_nan=True)

    def test_caller_arrays_stay_writable(self):
        users = np.array([0, 1])
        RatingStore(2, 1, users, np.array([0, 0]), np.array([3.0, 4.0]))
        users[0] = 1  # the store keeps copies

    def test_means(self):
        d = build_tiny()
        assert d.ratings.mean_of(0) == pytest.approx(3.0)  # alice: 4, 2, 3
        assert d.ratings.mean_of(1) == pytest.approx(3.0)  # bob: 5, 1, 4, 2
        with pytest.raises(UnknownUser):
            d.ratings.mean_of(99)

    def test_empty_user_has_nan_mean(self):
        store = RatingStore(2, 1, [0], [0], [3.0])
        assert np.isnan(store.mean_of(1))
        assert store.rating_count_of(1) == 0


class TestMakeDataset:
    def test_handles_are_sorted_external_ids(self, tiny):
        assert list(tiny.users) == ["alice", "bob", "carol", "dave", "erin"]
        assert list(tiny.items) == ["apple", "bread", "corn", "date"]

    def test_feedback_defaults_to_zero(self, tiny):
        assert tiny.feedback.col("nhelpful_total").sum() == 0
        assert tiny.feedback.col("fans")[1] == 16

    def test_review_counter_for_unrated_pair_rejected(self):
        with pytest.raises(ValueError, match="unrated pair"):
            make_dataset(
                provenance="synthetic",
                ratings=[("u1", "i1", 3.0)],
                review_counters={"useful": {("u1", "i2"): 1}},
            )

    def test_item_max_cache_matches_observed_max(self, tiny):
        rf = tiny.review_feedback
        store = tiny.ratings
        observed = np.zeros(store.num_items, dtype=np.int64)
        for i in range(store.num_items):
            _, _, pos = store.raters_of(i)
            if pos.size:
                observed[i] = rf.totals()[pos].max()
        assert (rf.item_max_totals() == observed).all()

    def test_total_of(self, tiny):
        assert tiny.review_feedback.total_of(1, 0) == 6  # bob on apple
        assert tiny.review_feedback.total_of(4, 0) == 0  # erin never rated apple


class TestApplyFilters:
    def test_no_op_filter_preserves_content(self, tiny):
        assert datasets_equal(apply_filters(tiny, 0, None), tiny)

    def test_min_ratings(self, tiny):
        got = apply_filters(tiny, 3)
        assert list(got.users) == ["alice", "bob", "carol"]
        assert len(got.ratings) == 10
        # bob-dave edge must be gone with dave
        assert sorted(got.social.edges()) == [(0, 1), (0, 2)]

    def test_category_filter_runs_before_user_filter(self, tiny):
        got = apply_filters(tiny, 2, category_closure={"fruit"})
        # only apple and date are fruit; alice keeps 1 rating and is dropped
        assert list(got.items) == ["apple", "date"]
        assert list(got.users) == ["bob", "carol", "dave"]
        assert len(got.ratings) == 6

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            d = random_dataset(rng)
            once = apply_filters(d, 2, category_closure={"tag0", "tag1"})
            twice = apply_filters(once, 2, category_closure={"tag0", "tag1"})
            assert datasets_equal(once, twice)

    def test_every_surviving_user_meets_threshold(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            d = random_dataset(rng)
            k = int(rng.integers(1, 5))
            got = apply_filters(d, k)
            counts = got.ratings.user_rating_counts()
            assert (counts >= k).all()

    def test_feedback_and_frev_survive_refiltering(self, tiny):
        got = apply_filters(tiny, 3)
        bob = got.users.handle("bob")
        assert got.feedback.col("fans")[bob] == 16
        apple = got.items.handle("apple")
        assert got.review_feedback.total_of(bob, apple) == 6


class TestComputeStats:
    def test_tiny_population(self, tiny):
        report = compute_stats(tiny)
        assert report.num_users == 5
        assert report.num_items == 4
        assert report.num_ratings == 13
        assert report.num_friend_relations == 6
        assert report.rating_sparsity == pytest.approx(1 - 13 / 20)
        assert report.friend_sparsity == pytest.approx(1 - 6 / 25)

        rows = {r.name: r for r in report.rows}
        friends = rows["friends per user"]
        assert (friends.min, friends.max) == (0.0, 2.0)
        assert friends.mean == pytest.approx(1.2)
        assert friends.median == 1.0
        assert friends.mode == 1.0  # tie between 1 and 2 resolves downward

        elite = rows["elite years per user profile"]
        assert (elite.max, elite.median, elite.mode) == (4.0, 0.0, 0.0)

        per_review = rows["review feedback (useful+funny+cool) per review"]
        assert per_review.max == 6.0
        assert per_review.mean == pytest.approx(23 / 13)

    def test_empty_dataset_rows_are_undefined(self):
        d = make_dataset(provenance="synthetic", ratings=[])
        report = compute_stats(d)
        assert report.num_users == 0
        assert report.rating_sparsity is None
        assert all(not r.defined for r in report.rows)
        assert "-" in report.to_text()

    def test_librarything_rows(self):
        d = make_dataset(
            provenance="librarything",
            ratings=[("u1", "b1", 4.0), ("u2", "b1", 5.0)],
            user_counters={"nhelpful_total": {"u1": 7}},
            review_counters={"nhelpful": {("u1", "b1"): 7}},
        )
        report = compute_stats(d)
        names = [r.name for r in report.rows]
        assert names == [
            "review feedback (nhelpful) per user",
            "review feedback (nhelpful) per review",
            "friends per user",
        ]
        assert report.rows[0].max == 7.0
