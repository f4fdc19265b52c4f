"""Dataset structures, filtering and summary statistics."""

from __future__ import annotations

import dataclasses
import math
import random
import re

import numpy as np
import pytest

from trustcf import (
    FacetWeights,
    Interner,
    ItemCategories,
    PredictionKind,
    RatingStore,
    RecItem,
    RecommendationList,
    TrainedModel,
    apply_filters,
    build_profiles,
    compute_stats,
    fuse_trust,
    indicator_frev,
    intra_diversity,
    make_config,
    make_dataset,
    rel_direct,
)
from trustcf import dataset
from trustcf.canonical import datasets_equal, render_canonical
from trustcf.dataset import (
    REVIEW_COUNTERS,
    USER_COUNTERS,
    CounterOverflow,
    FeedbackTable,
    ReviewFeedback,
    build_dataset,
    check_handles,
    search_keys,
)
from trustcf.errors import UnknownUser
from trustcf.recommender import block_candidates, pearson_many
from trustcf.social import SocialGraph, jaccard_many, relatedness

from conftest import build_tiny, random_dataset


class TestInterner:
    def test_roundtrip(self):
        interner = Interner(["x", "y"])
        assert interner.external(0) == "x"
        assert interner.handle("y") == 1
        assert len(interner) == 2
        assert "x" in interner and "z" not in interner

    def test_duplicate_seed_ids_rejected(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            Interner(["a", "a"])

    def test_ids_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            Interner(["b", "a"])

    def test_handle_is_the_rank_of_the_id(self):
        ids = ["", "a", "a\x01", "a\tb", "ab", "b", "Ü"]
        assert ids == sorted(ids)
        interner = Interner(iter(ids))
        assert [interner.handle(x) for x in ids] == list(range(len(ids)))
        for missing in ("0", "a\x00", "aa", "c", "\uffff"):
            assert missing not in interner
            with pytest.raises(KeyError):
                interner.handle(missing)
        assert not hasattr(interner, "__dict__") and not hasattr(Interner, "handles")


# Every public entry point that takes a user or item handle: (name, kind,
# call with the handle h).  A kind names the error a bad handle raises and
# the count of valid handles.
HANDLE_KINDS = {
    "user": (UnknownUser, "num_users"),
    "item": (IndexError, "num_items"),
    "user id": (IndexError, "num_users"),  # an Interner raises as a sequence does
    "item id": (IndexError, "num_items"),
    "new user": (ValueError, "num_users"),  # constructors reject their input
    "new item": (ValueError, "num_items"),
}

HANDLE_ENTRY_POINTS = [
    ("RatingStore(users)", "new user",
     lambda d, m, h: RatingStore(d.num_users, d.num_items, [0, h], [0, 1], [3.0, 3.0])),
    ("RatingStore(items)", "new item",
     lambda d, m, h: RatingStore(d.num_users, d.num_items, [0, 1], [0, h], [3.0, 3.0])),
    ("ItemCategories()", "new item", lambda d, m, h: ItemCategories(d.num_items, {h: ["x"]})),
    ("RatingStore.items_of", "user", lambda d, m, h: d.ratings.items_of(h)),
    ("RatingStore.rating_count_of", "user", lambda d, m, h: d.ratings.rating_count_of(h)),
    ("RatingStore.mean_of", "user", lambda d, m, h: d.ratings.mean_of(h)),
    ("RatingStore.items_of_many", "user", lambda d, m, h: d.ratings.items_of_many([0, h])),
    ("RatingStore.raters_of", "item", lambda d, m, h: d.ratings.raters_of(h)),
    ("RatingStore.ratings_of_items", "item", lambda d, m, h: d.ratings.ratings_of_items([0, h])),
    ("ReviewFeedback.total_of(u)", "user", lambda d, m, h: d.review_feedback.total_of(h, 0)),
    ("ReviewFeedback.total_of(i)", "item", lambda d, m, h: d.review_feedback.total_of(0, h)),
    ("ItemCategories.of", "item", lambda d, m, h: d.categories.of(h)),
    ("ItemCategories.shared(a)", "item", lambda d, m, h: d.categories.shared([0, h], [0, 1])),
    ("ItemCategories.shared(b)", "item", lambda d, m, h: d.categories.shared([0, 1], [0, h])),
    ("Interner.external", "user id", lambda d, m, h: d.users.external(h)),
    ("Interner.externals", "item id", lambda d, m, h: d.items.externals([0, h])),
    ("SocialGraph.friends_of", "user", lambda d, m, h: d.social.friends_of(h)),
    ("SocialGraph.degree", "user", lambda d, m, h: d.social.degree(h)),
    ("SocialGraph.friends_of_many", "user", lambda d, m, h: d.social.friends_of_many([0, h])),
    ("SocialGraph.has_edges(us)", "user", lambda d, m, h: d.social.has_edges([h], [1])),
    ("SocialGraph.has_edges(vs)", "user", lambda d, m, h: d.social.has_edges([0], [h])),
    ("relatedness(u)", "user",
     lambda d, m, h: relatedness(d.social, h, np.array([1]), "intersection")),
    ("relatedness(v)", "user",
     lambda d, m, h: relatedness(d.social, 0, np.array([1, h]), "direct")),
    ("jaccard_many", "user", lambda d, m, h: jaccard_many(d.social, 0, np.array([h]))),
    ("rel_direct", "user", lambda d, m, h: rel_direct(d.social, 0, h)),
    ("TrustProfiles.frev_at(users)", "user",
     lambda d, m, h: build_profiles(d).frev_at([0, h], [0, 0])),
    ("TrustProfiles.frev_at(items)", "item",
     lambda d, m, h: build_profiles(d).frev_at([0, 0], [0, h])),
    ("fuse_trust", "user",
     lambda d, m, h: fuse_trust(build_profiles(d), d.social, FacetWeights({"elite": 1.0}), 0, h, 0)),
    ("block_candidates(users)", "user",
     lambda d, m, h: block_candidates(d.ratings, [0, h], [0, 0])),
    ("block_candidates(items)", "item",
     lambda d, m, h: block_candidates(d.ratings, [0, 0], [0, h])),
    ("pearson_many(u)", "user", lambda d, m, h: pearson_many(d.ratings, h, np.array([1]))),
    ("pearson_many(v)", "user", lambda d, m, h: pearson_many(d.ratings, 0, np.array([1, h]))),
    ("TrainedModel.influence(u)", "user", lambda d, m, h: m.influence(h, 1, 0)),
    ("TrainedModel.influence(v)", "user", lambda d, m, h: m.influence(0, h, 0)),
    ("TrainedModel.influence(i)", "item", lambda d, m, h: m.influence(0, 1, h)),
    ("TrainedModel.predict(u)", "user", lambda d, m, h: m.predict(h, 0)),
    ("TrainedModel.predict(i)", "item", lambda d, m, h: m.predict(0, h)),
    ("TrainedModel.predict_items(u)", "user", lambda d, m, h: m.predict_items(h, [0])),
    ("TrainedModel.predict_items(i)", "item", lambda d, m, h: m.predict_items(0, [0, h])),
    ("TrainedModel.select_neighbors(u)", "user", lambda d, m, h: m.select_neighbors(h, 0)),
    ("TrainedModel.select_neighbors(i)", "item", lambda d, m, h: m.select_neighbors(0, h)),
    ("intra_diversity", "item", lambda d, m, h: intra_diversity(
        RecommendationList(0, tuple(RecItem(i, 3.0, PredictionKind.MODEL) for i in (0, h))),
        d.categories,
    )),
]


@pytest.mark.parametrize("bad", ["-1", "n", "2**40", "2**64", "1.7", "'1'"])
@pytest.mark.parametrize(
    "kind, call", [row[1:] for row in HANDLE_ENTRY_POINTS], ids=[row[0] for row in HANDLE_ENTRY_POINTS]
)
def test_every_entry_point_rejects_a_handle_out_of_range(tiny, kind, call, bad):
    """Out of range or not an integer: a float is not truncated to a handle."""
    error, count = HANDLE_KINDS[kind]
    h = {"-1": -1, "n": getattr(tiny, count), "2**40": 2**40, "2**64": 2**64,
         "1.7": 1.7, "'1'": "1"}[bad]
    model = TrainedModel(tiny.ratings, build_profiles(tiny), tiny.social, make_config("MTR", 0.1))
    with pytest.raises(error, match="handle out of range" if isinstance(h, int)
                       else "handle is not an integer"):
        call(tiny, model, h)


@pytest.mark.parametrize("handles, shown", [
    (1.7, "1.7"), (True, "True"), ("1", "'1'"), ([0, 2.5], "2.5"), ([True, False], "True"),
    (np.array([0.0]), "0.0"), ([2**64, 0.5], "18446744073709551616"),
])
def test_check_handles_rejects_what_is_not_an_integer(handles, shown):
    """A float, bool or str is not truncated to a handle; the first bad one is
    named, in the order given."""
    message = f"item handle {'out of range' if shown.isdigit() else 'is not an integer'}: {shown}"
    with pytest.raises(IndexError, match=f"^{re.escape(message)}$"):
        check_handles(handles, 3, "item", IndexError)


def test_check_handles_keeps_empty_and_integer_inputs():
    for empty in ([], (), np.array([], dtype=np.float64)):
        assert check_handles(empty, 3, "item", IndexError).dtype == np.int64
    np.testing.assert_array_equal(check_handles(np.array([0, 2], dtype=object), 3, "item",
                                                IndexError), [0, 2])
    assert check_handles(np.uint8(2), 3, "item", IndexError) == 2


@pytest.mark.parametrize("parts, message", [
    # 2 user ids over a 5-user store and a 6-user graph, which a save would
    # meet only as an IndexError
    (lambda d: {"users": Interner(["alice", "bob"]), "social": SocialGraph(6)},
     "2 user ids, but the rating store holds 5 users"),
    (lambda d: {"social": SocialGraph(6)}, "5 user ids, but the social graph holds 6 users"),
    (lambda d: {"feedback": FeedbackTable(4)}, "5 user ids, but the feedback table holds 4 users"),
    (lambda d: {"items": Interner(["apple"])}, "1 item ids, but the rating store holds 4 items"),
    (lambda d: {"categories": ItemCategories(5)}, "4 item ids, but the category table holds 5 items"),
    (lambda d: {"review_feedback": ReviewFeedback(RatingStore(
        5, 4, d.ratings.user_idx, d.ratings.item_idx, d.ratings.value))},
     "the review feedback is not aligned with the dataset's rating store"),
], ids=["users", "social", "feedback", "items", "categories", "review-store"])
def test_dataset_rejects_parts_that_disagree(tiny, parts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(tiny, **parts(tiny))


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

    def test_held_out_means_equal_each_subset_bit_for_bit(self):
        rng = np.random.default_rng(13)
        seen = dict(all_held_out=0, unlabelled=0)
        for _ in range(20):
            store = random_dataset(rng).ratings
            folds = int(rng.integers(1, 6))
            # labels past the last fold, or negative, hold nothing out
            labels = rng.integers(-1, folds + 2, size=len(store)).astype(np.int8)
            labels[store.user_idx == 0] = 0  # every rating of user 0 in fold 0
            means = store.held_out_means(labels, folds)
            assert means.shape == (folds, store.num_users)
            for f in range(folds):
                keep = labels != f
                want = RatingStore(store.num_users, store.num_items, store.user_idx[keep],
                                   store.item_idx[keep], store.value[keep]).user_means()
                assert np.array_equal(means[f], want, equal_nan=True), f
            seen["all_held_out"] += bool(np.isnan(means[0, 0]))
            seen["unlabelled"] += int(np.count_nonzero((labels < 0) | (labels >= folds)))
        assert min(seen.values()) > 0, seen

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


class TestKeySearch:
    def test_empty_arrays(self):
        at, found = search_keys(np.zeros(0, dtype=np.int64), np.array([0, 7]))
        assert at.tolist() == [0, 0] and found.tolist() == [False, False]
        at, found = search_keys(np.array([3, 8]), np.zeros(0, dtype=np.int64))
        assert at.size == found.size == 0

    def test_present_and_absent_keys(self):
        keys = np.array([2, 5, 9])
        # below, first, between, inner, last, above
        at, found = search_keys(keys, np.array([1, 2, 4, 5, 9, 10]))
        assert found.tolist() == [False, True, False, True, True, False]
        assert at[found].tolist() == [0, 1, 2]
        assert ((at >= 0) & (at < keys.size)).all()


class TestPositions:
    def test_matches_a_scan_of_the_ratings(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            store = random_dataset(rng).ratings
            where = {(u, i): n for n, (u, i, _) in enumerate(store.triples())}
            users, items = np.meshgrid(np.arange(-1, store.num_users + 1),
                                       np.arange(-1, store.num_items + 1))
            want = [where.get(pair, -1) for pair in zip(users.ravel().tolist(),
                                                        items.ravel().tolist())]
            assert store.positions(users.ravel(), items.ravel()).tolist() == want

    def test_out_of_range_handles_do_not_alias(self):
        # packed keys 1, 2, 3, 4: (1, -1) packs to (0, 1)'s and (1, 2) to (2, 0)'s
        store = RatingStore(3, 2, [0, 1, 1, 2], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0])
        assert store.positions([1, 1], [-1, 2]).tolist() == [-1, -1]
        assert store.positions([0, 2], [1, 0]).tolist() == [0, 3]  # first and last
        assert store.positions([-1, 3], [1, 0]).tolist() == [-1, -1]
        # -2**63 * 2 wraps to 0, so (-2**63, 1) would pack to (0, 1)'s key
        assert store.positions([-2**63, 2**62], [1, 0]).tolist() == [-1, -1]

    def test_handles_beyond_int64(self):
        store = RatingStore(3, 2, [0, 1, 1, 2], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0])
        for big in (2**64, 2**63, -2**63 - 1):
            assert store.positions([big], [0]).tolist() == [-1]
            assert store.positions([0], [big]).tolist() == [-1]
            assert store.positions([big, 0], [0, 1]).tolist() == [-1, 0]

    def test_empty(self):
        store = RatingStore(2, 2, [], [], [])
        assert store.positions([0, 1], [0, 1]).tolist() == [-1, -1]
        assert store.positions([], []).size == 0


class TestItemCategories:
    def test_of_round_trips_tagged_and_untagged_items(self):
        cats = ItemCategories(4, {0: {"b", "a"}, 2: ["c", "a", "a"], 3: []})
        assert [cats.of(i) for i in range(4)] == [
            frozenset({"a", "b"}), frozenset(), frozenset({"a", "c"}), frozenset()]
        assert cats.names == ("a", "b", "c")
        assert cats.sizes.tolist() == [2, 0, 2, 0]
        assert len(cats) == 4

    def test_columns_build_the_same_index(self):
        mapping = ItemCategories(3, {0: {"x"}, 2: {"y", "x"}})
        columns = ItemCategories.from_columns(
            3, np.array([2, 0, 2, 2]), Interner(["x", "y"]), [1, 0, 0, 1])
        for name in ("names", "sizes", "ptr", "tags", "keys"):
            assert np.array_equal(getattr(mapping, name), getattr(columns, name)), name

    def test_shared_counts_the_intersection(self):
        rng = np.random.default_rng(59)
        pool = [f"t{n}" for n in range(6)]
        for _ in range(20):
            n = int(rng.integers(1, 12))
            cats = ItemCategories(n, {
                i: {pool[int(t)] for t in rng.choice(6, size=int(rng.integers(0, 4)))}
                for i in range(n) if rng.random() < 0.8
            })
            a, b = rng.integers(0, n, size=30), rng.integers(0, n, size=30)
            want = [len(cats.of(x) & cats.of(y)) for x, y in zip(a.tolist(), b.tolist())]
            assert cats.shared(a, b).tolist() == want

    def test_out_of_range_item_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ItemCategories(2, {2: []})


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

    def test_frev_divides_by_the_observed_item_max(self, tiny):
        rf = tiny.review_feedback
        store = tiny.ratings
        observed = np.zeros(store.num_items, dtype=np.int64)
        for i in range(store.num_items):
            _, _, pos = store.raters_of(i)
            if pos.size:
                observed[i] = rf.totals()[pos].max()
        assert observed.min() == 0 < observed.max()  # an item whose reviews drew none
        denom = observed[store.item_idx]
        want = np.where(denom > 0, rf.totals() / np.maximum(denom, 1), 0.0)
        assert indicator_frev(rf).tolist() == want.tolist()

    def test_total_of(self, tiny):
        assert tiny.review_feedback.total_of(1, 0) == 6  # bob on apple
        assert tiny.review_feedback.total_of(4, 0) == 0  # erin never rated apple
        for u in (-1, tiny.num_users):
            with pytest.raises(UnknownUser):
                tiny.review_feedback.total_of(u, 0)


class TestBuildDataset:
    @staticmethod
    def build(users=("a", "b"), items=("x",), **columns):
        """build_dataset over interners of ``users`` and ``items``; the
        ratings are (a, x) and (b, x) unless ``columns`` gives others."""
        return build_dataset(provenance="synthetic", users=Interner(users), items=Interner(items),
                             **{"ratings": ([0, 1], [0, 0], [1.0, 2.0]), **columns})

    def test_tables_add_up_and_no_id_is_looked_up(self, monkeypatch):
        looked_up = []
        real = dataset.factorize
        monkeypatch.setattr(dataset, "factorize", lambda *c: looked_up.append(c) or real(*c))
        d = self.build(
            users=("a", "b", "c"), items=("x", "y"),
            ratings=([0, 1, 0], [0, 0, 1], [1.0, 2.0, 3.0]),
            user_counters=[([0, 1, 0], {"fans": [1, 2, 3], "review_count": [1, 1, 1]}),
                           ([1], {"fans": [5]})],
            review_counters=[([0, 1, 0], [0, 0, 1], {"useful": [1, 0, 2]}),
                             ([0], [0], {"useful": [4]})],
            categories=([1, 1], Interner(["s", "t"]), [1, 0]),
        )
        assert d.feedback.col("fans").tolist() == [4, 7, 0]
        assert d.feedback.col("review_count").tolist() == [2, 1, 0]
        # canonical order: (a, x), (a, y), (b, x)
        assert d.review_feedback.col("useful").tolist() == [5, 2, 0]
        assert [d.categories.of(i) for i in range(2)] == [frozenset(), frozenset({"s", "t"})]
        # the builder works on the handles it is given
        assert looked_up == []

    def test_every_id_of_each_interner_becomes_a_handle(self):
        # "0" sorts first, and no row refers to it, to "y" or to "u"
        d = self.build(users=("0", "a", "b"), items=("x", "y"),
                       ratings=([1, 2], [0, 0], [1.0, 2.0]),
                       categories=([0], Interner(["t", "u"]), [0]))
        assert (list(d.users), list(d.items)) == (["0", "a", "b"], ["x", "y"])
        assert d.categories.names == ("t", "u")
        assert d.ratings.user_rating_counts().tolist() == [0, 1, 1]
        assert d.ratings.item_rating_counts().tolist() == [2, 0]
        # an interner's ids ascend, so handle order is id order
        for ids in (["b", "a"], ["a", "a"]):
            with pytest.raises(ValueError, match="strictly ascending"):
                Interner(ids)
        empty = self.build(users=(), items=(), ratings=((), (), ()))
        assert (empty.num_users, empty.num_items, len(empty.ratings)) == (0, 0, 0)

    @pytest.mark.parametrize("columns, kind", [
        ({"ratings": ([0, 2], [0, 0], [1.0, 2.0])}, "user"),
        ({"ratings": ([0, 1], [0, -1], [1.0, 2.0])}, "item"),
        ({"friends": ([0], [2])}, "user"),
        ({"friends": ([-1], [0])}, "user"),
        ({"user_counters": [([2], {"fans": [1]})]}, "user"),
        ({"user_counters": [([0, -1], {"fans": [1, 1]})]}, "user"),
        ({"user_counters": [([2 ** 64], {"fans": [1]})]}, "user"),
        ({"review_counters": [([-1], [0], {"useful": [1]})]}, "user"),
        ({"review_counters": [([0], [1], {"useful": [1]})]}, "item"),
        ({"categories": ([1], Interner(["t"]), [0])}, "item"),
        ({"categories": ([-1], Interner(["t"]), [0])}, "item"),
        ({"categories": ([0], Interner(["t"]), [1])}, "tag"),
        ({"categories": ([0], Interner(["t"]), [-1])}, "tag"),
    ], ids=["rating-user", "rating-item", "friend", "friend-negative", "user-counter",
            "user-counter-negative", "user-counter-beyond-int64", "review-user", "review-item",
            "category-item", "category-item-negative", "tag", "tag-negative"])
    def test_handle_out_of_its_interner_raises(self, columns, kind):
        """-1 never aliases the last id: a counter or a tag would land on it."""
        with pytest.raises(ValueError, match=f"{kind} handle out of range"):
            self.build(**columns)

    @pytest.mark.parametrize("columns, message", [
        # numpy would add the one value to each row: fans [10, 5]
        ({"user_counters": [([0, 1, 0], {"fans": [5]})]},
         "user counter table 0: counter 'fans' has 1 values for 3 rows"),
        ({"user_counters": [([0], {"fans": [1]}), ([0, 1], {"fans": [1, 2], "gw": [1, 2, 3]})]},
         "user counter table 1: counter 'gw' has 3 values for 2 rows"),
        ({"review_counters": [([0, 1], [0, 0], {"useful": [1]})]},
         "review counter table 0: counter 'useful' has 1 values for 2 rows"),
        ({"review_counters": [([0], [0, 0], {"useful": [1, 1]})]},
         "review counter table 0: 1 user handles for 2 item handles"),
        # numpy would give item 0 every tag
        ({"categories": ([0], Interner(["s", "t"]), [0, 1, 1])},
         "categories: 3 tag handles for 1 item handles"),
    ], ids=["user-values", "second-user-table", "review-values", "review-handles", "categories"])
    def test_columns_of_one_table_differ_in_length(self, columns, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.build(**columns)

    def test_review_of_an_unrated_pair_names_its_ids(self):
        with pytest.raises(ValueError, match=r"unrated pair \('b', 'y'\)"):
            self.build(items=("x", "y"), review_counters=[([0, 1], [0, 1], {"useful": [1, 1]})])

    def test_counters_beyond_int64_raise_rather_than_wrap(self):
        def build(*user_counters):
            return self.build(ratings=([0], [0], [1.0]), user_counters=user_counters)

        # totals that fit, though the quick bound on them does not
        d = build(([0, 1], {"fans": [2 ** 62, 2 ** 62]}), ([1], {"fans": [2 ** 62 - 1]}))
        assert d.feedback.col("fans").tolist() == [2 ** 62, 2 ** 63 - 1]
        with pytest.raises(CounterOverflow) as caught:
            build(([0], {"fans": [1]}), ([1, 0], {"fans": [1, 2 ** 63 - 1]}))
        assert (caught.value.name, caught.value.table, caught.value.row) == ("fans", 1, 1)
        with pytest.raises(CounterOverflow) as caught:
            build(([0, 1], {"fans": [0, 2 ** 64]}))
        assert (caught.value.table, caught.value.row) == (0, 1)
        with pytest.raises(CounterOverflow, match="'useful' does not fit in int64"):
            make_dataset(provenance="synthetic", ratings=[("a", "x", 1.0)],
                         review_counters={"useful": {("a", "x"): -(2 ** 63)}})

    @pytest.mark.parametrize("kind, counters, group", [
        # one review's useful+funny: ReviewFeedback.totals and the per-review statistics
        ("review", {"useful": 2 ** 62, "funny": 2 ** 62}, ("useful", "funny", "cool", "nhelpful")),
        # one user's compliments: the lup and vis facets and the statistics
        ("user", {"more": 2 ** 62, "thx": 2 ** 62}, ("more", "thx", "gw")),
        # one user's received feedback: the fb facet
        ("user", {"review_cool": 2 ** 62, "tip_likes": 2 ** 62},
         ("review_useful", "review_funny", "review_cool", "tip_likes")),
        ("user", {"review_count": 2 ** 62, "tip_count": 2 ** 62}, ("review_count", "tip_count")),
    ], ids=["review-totals", "compliments", "received", "contributions"])
    def test_counter_sums_beyond_int64_raise_rather_than_wrap(self, kind, counters, group):
        last = list(counters)[-1]

        def build(shift):
            # a second row, b's, so the overflowing one is not the first
            values = {name: [1, v - shift * (name == last)] for name, v in counters.items()}
            table = ([0, 1], [0, 0], values) if kind == "review" else ([0, 1], values)
            return self.build(**{f"{kind}_counters": [table]})

        d = build(1)  # sums of exactly 2^63 - 1 fit
        fits = d.review_feedback.totals() if kind == "review" else d.feedback.total(group)
        assert fits.tolist() == [len(counters), 2 ** 63 - 1]
        with pytest.raises(CounterOverflow) as caught:
            build(0)
        assert caught.value.group == group
        assert (caught.value.table, caught.value.row) == (0, 1)
        assert caught.value.name == last
        assert str(caught.value) == f"the sum {'+'.join(group)} does not fit in int64"

    def test_counter_sums_checked_per_entry(self):
        # the largest values add up beyond int64, but on different users
        d = self.build(user_counters=[([0, 1], {"more": [2 ** 62, 0], "gw": [0, 2 ** 62]})])
        assert d.feedback.total(("more", "thx", "gw")).tolist() == [2 ** 62, 2 ** 62]


class TestHandleColumns:
    """build_dataset over interners and handle columns builds what
    make_dataset builds from the same rows keyed by ids, with every id of
    the interners named as an extra id."""

    # ids below the tab sort before it: "a\x01" < "a\t" < "a"+"b"
    USERS = ("u1", "u2", "a\x01", "a\x08b", "\x02", "u10", "Ü")
    ITEMS = ("i1", "i\x03", "i2", "\x07", "i10")
    TAGS = ("Food", "F\x01", "Bars", "Café")

    @pytest.mark.parametrize("seed", range(40))
    def test_handle_columns_build_what_ids_build(self, seed):
        rnd = random.Random(seed)
        users, items, tags = (sorted(rnd.sample(pool, rnd.randint(1, len(pool))))
                              for pool in (self.USERS, self.ITEMS, self.TAGS))
        nu, ni = len(users), len(items)

        def some(n):  # up to n user handles, repeats allowed
            return [rnd.randrange(nu) for _ in range(rnd.randint(0, n))]

        pairs = rnd.sample([(u, i) for u in range(nu) for i in range(ni)],
                           rnd.randint(0, min(nu * ni, 8)))
        values = [float(rnd.randint(1, 5)) for _ in pairs]
        a = some(4)
        friends = (a, [rnd.randrange(nu) for _ in a])  # a self-friend is dropped
        fans = [(h, [rnd.randint(0, 9) for _ in h]) for h in (some(5), some(5))]
        reviewed = [rnd.choice(pairs) for _ in range(rnd.randint(0, 6))] if pairs else []
        useful = [rnd.randint(0, 3) for _ in reviewed]
        tagged = [(i, t) for i in range(ni) for t in range(len(tags)) if rnd.random() < 0.3]

        got = build_dataset(
            provenance="synthetic", users=Interner(users), items=Interner(items),
            ratings=([u for u, _ in pairs], [i for _, i in pairs], values),
            friends=friends,
            user_counters=[(h, {"fans": v}) for h, v in fans],
            review_counters=[([u for u, _ in reviewed], [i for _, i in reviewed],
                              {"useful": useful})],
            categories=([i for i, _ in tagged], Interner(tags), [t for _, t in tagged]),
        )

        fan_sums, useful_sums, categories = {}, {}, {}
        for h, v in fans:
            for u, n in zip(h, v):
                fan_sums[users[u]] = fan_sums.get(users[u], 0) + n
        for (u, i), n in zip(reviewed, useful):
            key = (users[u], items[i])
            useful_sums[key] = useful_sums.get(key, 0) + n
        for i, t in tagged:
            categories.setdefault(items[i], set()).add(tags[t])
        want = make_dataset(
            provenance="synthetic",
            ratings=[(users[u], items[i], v) for (u, i), v in zip(pairs, values)],
            friends=[(users[a], users[b]) for a, b in zip(*friends)],
            user_counters={"fans": fan_sums},
            review_counters={"useful": useful_sums},
            categories=categories, extra_users=users, extra_items=items,
        )
        assert (list(got.users), list(got.items)) == (users, items)
        for name in ("user_idx", "item_idx", "value"):
            assert getattr(got.ratings, name).tolist() == getattr(want.ratings, name).tolist()
        assert render_canonical(got) == render_canonical(want)


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

    def test_tags_of_dropped_items_go_and_kept_unrated_items_stay(self):
        d = make_dataset(
            provenance="synthetic",
            ratings=[("a", "x", 1.0), ("a", "y", 2.0), ("b", "z", 3.0), ("a", "w", 4.0)],
            categories={"x": ["food"], "y": ["bars", "food"], "z": ["food", "zoo"],
                        "w": ["golf"]},
            extra_items=["v"],
        )
        # b holds one rating, so z's only rating goes with b
        got = apply_filters(d, 2, category_closure={"food"})
        assert list(got.users) == ["a"]
        assert list(got.items) == ["x", "y", "z"]
        assert got.ratings.item_rating_counts().tolist() == [1, 1, 0]
        # golf: only w carried it
        assert got.categories.names == ("bars", "food", "zoo")
        assert [got.categories.of(i) for i in range(3)] == [
            frozenset({"food"}), frozenset({"bars", "food"}), frozenset({"food", "zoo"})]

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

    def test_unsorted_interners_are_rejected(self):
        """Handles are ranks of sorted ids, so no dataset has interners out of
        id order for a filter, a split or a tie-break to see."""
        with pytest.raises(ValueError, match="strictly ascending"):
            Interner(["dave", "alice", "erin", "bob", "carol"])
        with pytest.raises(ValueError, match="strictly ascending"):
            Interner(["pear", "fig", "apple", "kiwi"])
        # what the filter keeps still ascends, and keeps its relative order
        d = random_dataset(np.random.default_rng(24))
        got = apply_filters(d, 3, category_closure={"tag0", "tag1"})
        for old, new in ((d.users, got.users), (d.items, got.items)):
            assert list(new) == sorted(new)
            assert [old.handle(x) for x in new] == sorted(old.handle(x) for x in new)

    def test_kept_values_match_through_ids(self):
        rng = np.random.default_rng(23)
        gaps = {"users": 0, "items": 0}  # runs that drop handles below a kept one
        for _ in range(20):
            d = random_dataset(rng)
            closure = {f"tag{n}" for n in rng.choice(8, size=4, replace=False)}
            k = int(rng.integers(1, 4))
            got = apply_filters(d, k, closure)

            tags = {i: d.categories.of(d.items.handle(i)) for i in d.items}
            items = {i for i in d.items if tags[i] & closure}
            ratings = {(u, i): v for u, i, v in id_triples(d) if i in items}
            users = {u for u in d.users
                     if sum(1 for (ru, _) in ratings if ru == u) >= k}
            ratings = {key: v for key, v in ratings.items() if key[0] in users}
            assert set(got.users) == users and set(got.items) == items
            for name, interner, kept in (("users", d.users, users), ("items", d.items, items)):
                handles = [interner.handle(x) for x in kept]
                gaps[name] += bool(handles) and len(handles) <= max(handles)

            assert {(u, i): v for u, i, v in id_triples(got)} == ratings
            for name in USER_COUNTERS:
                old, new = d.feedback.col(name), got.feedback.col(name)
                for u in users:
                    assert new[got.users.handle(u)] == old[d.users.handle(u)]
            for name in REVIEW_COUNTERS:
                assert review_counts(got, name) == {
                    key: n for key, n in review_counts(d, name).items() if key in ratings}
            edges = {frozenset(e) for e in id_edges(d) if set(e) <= users}
            assert {frozenset(e) for e in id_edges(got)} == edges
            for i in items:
                assert got.categories.of(got.items.handle(i)) == tags[i]
        assert gaps["users"] and gaps["items"]


def id_triples(d):
    """(user id, item id, value) of every rating."""
    return [(d.users.external(u), d.items.external(i), v) for u, i, v in d.ratings.triples()]


def id_edges(d):
    return [(d.users.external(a), d.users.external(b)) for a, b in d.social.edges()]


def review_counts(d, name):
    """{(user id, item id): count} of review counter ``name``, per rating."""
    col = d.review_feedback.col(name)
    return {(u, i): int(col[n]) for n, (u, i, _) in enumerate(id_triples(d))}


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
        assert math.isnan(report.rating_sparsity) and math.isnan(report.friend_sparsity)
        assert all(math.isnan(getattr(r, name)) for r in report.rows
                   for name in ("min", "max", "mean", "median", "mode"))
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
