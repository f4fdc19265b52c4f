"""Dataset structures, filtering and summary statistics."""

from __future__ import annotations

import numpy as np
import pytest

from trustcf import (
    Dataset,
    FacetWeights,
    FeedbackTable,
    Interner,
    ItemCategories,
    PredictionKind,
    RatingStore,
    RecItem,
    RecommendationList,
    ReviewFeedback,
    SocialGraph,
    TrainedModel,
    apply_filters,
    build_profiles,
    canonical_load,
    canonical_save,
    compute_stats,
    fuse_trust,
    intra_diversity,
    make_config,
    make_dataset,
    rel_direct,
)
from trustcf.canonical import datasets_equal
from trustcf.dataset import (
    REVIEW_COUNTERS,
    USER_COUNTERS,
    CounterOverflow,
    build_dataset,
    search_keys,
)
from trustcf.errors import UnknownUser
from trustcf.recommender import block_candidates, pearson_many
from trustcf.social import jaccard_many, relatedness

from conftest import build_tiny, random_dataset


class TestInterner:
    def test_roundtrip(self):
        interner = Interner(["x", "y"])
        assert interner.external(0) == "x"
        assert interner.handle("y") == 1
        assert len(interner) == 2
        assert "x" in interner and "z" not in interner

    def test_duplicate_seed_ids_rejected(self):
        with pytest.raises(ValueError):
            Interner(["a", "a"])


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


@pytest.mark.parametrize("bad", ["-1", "n", "2**40", "2**64"])
@pytest.mark.parametrize(
    "kind, call", [row[1:] for row in HANDLE_ENTRY_POINTS], ids=[row[0] for row in HANDLE_ENTRY_POINTS]
)
def test_every_entry_point_rejects_a_handle_out_of_range(tiny, kind, call, bad):
    error, count = HANDLE_KINDS[kind]
    h = {"-1": -1, "n": getattr(tiny, count), "2**40": 2**40, "2**64": 2**64}[bad]
    model = TrainedModel(tiny.ratings, build_profiles(tiny), tiny.social, make_config("MTR", 0.1))
    with pytest.raises(error, match="handle out of range"):
        call(tiny, model, h)


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
            3, np.array([2, 0, 2, 2]), ["y", "x", "x", "y"])
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
        for u in (-1, tiny.num_users):
            with pytest.raises(UnknownUser):
                tiny.review_feedback.total_of(u, 0)


class TestBuildDataset:
    def test_tables_add_up_and_each_id_column_is_looked_up_once(self, monkeypatch):
        calls = []
        real = Interner.handles

        def handles(self, ids):
            calls.append((id(self), id(ids)))
            return real(self, ids)

        monkeypatch.setattr(Interner, "handles", handles)
        users, items = ["a", "b", "a"], ["x", "x", "y"]
        d = build_dataset(
            provenance="synthetic",
            ratings=(users, items, [1.0, 2.0, 3.0]),
            user_counters=[
                (users, {"fans": [1, 2, 3], "review_count": [1, 1, 1]}),
                (["b"], {"fans": [5]}),
            ],
            review_counters=[
                (users, items, {"useful": [1, 0, 2]}),
                (["a"], ["x"], {"useful": [4]}),
            ],
        )
        assert d.feedback.col("fans").tolist() == [4, 7]
        assert d.feedback.col("review_count").tolist() == [2, 1]
        # canonical order: (a, x), (a, y), (b, x)
        assert d.review_feedback.col("useful").tolist() == [5, 2, 0]
        assert len(calls) == len(set(calls))

    def test_counters_beyond_int64_raise_rather_than_wrap(self):
        def build(*user_counters):
            return build_dataset(provenance="synthetic", ratings=(["a"], ["x"], [1.0]),
                                 user_counters=user_counters)

        # totals that fit, though the quick bound on them does not
        d = build((["a", "b"], {"fans": [2 ** 62, 2 ** 62]}), (["b"], {"fans": [2 ** 62 - 1]}))
        assert d.feedback.col("fans").tolist() == [2 ** 62, 2 ** 63 - 1]
        with pytest.raises(CounterOverflow) as caught:
            build((["a"], {"fans": [1]}), (["b", "a"], {"fans": [1, 2 ** 63 - 1]}))
        assert (caught.value.name, caught.value.table, caught.value.row) == ("fans", 1, 1)
        with pytest.raises(CounterOverflow) as caught:
            build((["a", "b"], {"fans": [0, 2 ** 64]}))
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
            table = ((["a", "b"], ["x", "x"], values) if kind == "review"
                     else (["a", "b"], values))
            return build_dataset(provenance="synthetic",
                                 ratings=(["a", "b"], ["x", "x"], [1.0, 2.0]),
                                 **{f"{kind}_counters": [table]})

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
        d = build_dataset(provenance="synthetic", ratings=(["a", "b"], ["x", "x"], [1.0, 2.0]),
                          user_counters=[(["a", "b"], {"more": [2 ** 62, 0], "gw": [0, 2 ** 62]})])
        assert d.feedback.total(("more", "thx", "gw")).tolist() == [2 ** 62, 2 ** 62]


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

    def test_unsorted_interners_filter_to_sorted_handles(self, tmp_path):
        users = Interner(["dave", "alice", "erin", "bob", "carol"])
        items = Interner(["pear", "fig", "apple", "kiwi"])
        store = RatingStore(5, 4, [0, 0, 1, 1, 1, 2, 3, 3, 4, 4, 4],
                            [0, 3, 0, 1, 2, 1, 1, 3, 0, 2, 3],
                            [4, 2, 3, 5, 1, 2, 4, 4, 3, 5, 1])
        d = Dataset(
            users=users,
            items=items,
            ratings=store,
            social=SocialGraph(5, [(0, 1), (1, 3), (2, 4), (3, 4)]),
            feedback=FeedbackTable(5, {"fans": np.array([5, 0, 7, 1, 2])}),
            review_feedback=ReviewFeedback(store, {"useful": np.arange(len(store)) % 3}),
            categories=ItemCategories(4, {0: {"fruit", "green"}, 1: {"fruit"}, 3: {"green"}}),
            provenance="synthetic",
        )
        # the same content with sorted interners, as a round trip makes it
        canonical_save(d, tmp_path / "d")
        twin = canonical_load(tmp_path / "d")
        for k, closure in ((0, None), (2, None), (2, {"fruit"}), (1, {"green"})):
            got = apply_filters(d, k, closure)
            assert datasets_equal(got, apply_filters(twin, k, closure))
            assert list(got.users) == sorted(got.users)
            assert list(got.items) == sorted(got.items)

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
