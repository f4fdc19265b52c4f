"""Batched similarity kernels against the naive loop-based oracle."""

from __future__ import annotations

import numpy as np
import pytest

from trustcf import RatingStore, fold_assignment, make_config, run_experiment, split_folds
from trustcf import recommender
from trustcf.dataset import RATING_MAX, RATING_MIN
from trustcf.recommender import (
    MIN_CORATED, CoRatings, _centred_pearson, best_k, block_candidates, pearson_many,
    predict_block)
from trustcf import social
from trustcf.social import SocialGraph, jaccard_many, relatedness

import reference
from conftest import random_dataset


def with_flat_raters(rng, store: RatingStore) -> RatingStore:
    """The same ratings, except that about a fifth of the users rate all 3.0."""
    flat = rng.random(store.num_users) < 0.2
    values = store.value.copy()
    values[flat[store.user_idx]] = 3.0
    return RatingStore(
        store.num_users, store.num_items, store.user_idx, store.item_idx, values)


def rows_of(store: RatingStore) -> dict[int, dict[int, float]]:
    return {
        u: dict(zip(*(a.tolist() for a in store.items_of(u))))
        for u in range(store.num_users)
    }


def test_pearson_many_matches_naive_pearson():
    rng = np.random.default_rng(81)
    seen = dict(no_overlap=0, one_item=0, zero_variance=0, positive=0)
    for _ in range(40):
        d = random_dataset(rng, max_users=30, max_items=15, max_ratings=250)
        store = with_flat_raters(rng, d.ratings)
        by_user = rows_of(store)
        for u in rng.permutation(store.num_users):
            u = int(u)
            vs = np.array([v for v in range(store.num_users) if v != u])
            got = pearson_many(store, u, vs)
            for v, value in zip(vs.tolist(), got):
                want = reference.naive_pearson(by_user[u], by_user[v])
                assert abs(value - want) <= 1e-12, (u, v)
                common = set(by_user[u]) & set(by_user[v])
                if not common:
                    seen["no_overlap"] += 1
                elif len(common) == 1:
                    seen["one_item"] += 1
                elif min(len({by_user[w][i] for i in common}) for w in (u, v)) == 1:
                    seen["zero_variance"] += 1
                elif want > 0:
                    seen["positive"] += 1
    assert min(seen.values()) > 100, seen


def test_pearson_many_empty_and_repeated_candidates():
    store = RatingStore(3, 3, [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2],
                        [1.0, 2.0, 3.0, 2.0, 2.0, 3.0])
    assert pearson_many(store, 0, np.array([], dtype=np.int64)).shape == (0,)
    got = pearson_many(store, 0, np.array([1, 2, 1]))
    assert got[0] == got[2] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert got[1] == 0.0  # user 2 rated nothing


def test_pearson_many_sign_matches_per_pair_arithmetic():
    """Neighbors qualify on sigma > 0, so zero correlations must stay zero.

    A correlation that is exactly 0 can round to +-1e-16 depending on the
    order of summation; the kernel must qualify exactly the candidates
    that the per-pair arithmetic qualifies.
    """
    rng = np.random.default_rng(83)
    grid = np.arange(1.0, 5.5, 0.5)
    zeros = 0
    for n in range(3, 21):
        others = 400
        x = rng.choice(grid, size=n)
        ys = rng.choice(grid, size=(others, n))
        users = np.repeat(np.arange(others + 1), n)
        items = np.tile(np.arange(n), others + 1)
        store = RatingStore(others + 1, n, users, items, np.concatenate([x, ys.ravel()]))
        got = pearson_many(store, 0, np.arange(1, others + 1))
        for y, value in zip(ys, got):
            want = _centred_pearson(x, y)
            assert (value > 0.0) == (want > 0.0), (x, y)
            assert abs(value - min(max(want, 0.0), 1.0)) <= 1e-12
            zeros += abs(want) < 1e-12
    assert zeros > 50


def test_corating_index_matches_pearson_on_rebuilt_training_stores():
    """Per fold, the run's index gives every indexed pair and every pair a
    fold asks about the sigma of a training store built from scratch."""
    rng = np.random.default_rng(84)
    seen = dict(indexed=0, requested=0, unindexed=0, positive=0)
    for _ in range(12):
        d = random_dataset(rng, max_users=30, max_items=15, max_ratings=250)
        store = with_flat_raters(rng, d.ratings)
        nu = store.num_users
        folds = int(rng.integers(2, 6))
        assignment = fold_assignment(len(store), folds, int(rng.integers(1 << 30)))
        # the run's index (MIN_CORATED + 1) and any index that keeps more pairs
        for min_count in (1, MIN_CORATED, MIN_CORATED + 1):
            index = CoRatings(store, np.arange(nu), min_count)
            assert (np.diff(index.keys) > 0).all()
            sigmas = index.pearson(assignment, folds)
            for fold in range(folds):
                held_out = assignment == fold
                keep = ~held_out
                train = RatingStore(nu, store.num_items, store.user_idx[keep],
                                    store.item_idx[keep], store.value[keep])
                sigma = sigmas[fold]
                c = block_candidates(train, store.user_idx[held_out], store.item_idx[held_out])
                lower, upper = np.divmod(index.keys, nu)
                asked = ((lower, upper), (upper, lower), (c.pair_users, c.pair_cands))
                for users, cands in asked:
                    got = index.of(sigma, users, cands)
                    for u in np.unique(users).tolist():
                        mine = users == u
                        want = pearson_many(train, u, cands[mine])
                        assert np.array_equal(got[mine], want), (u, min_count, fold)
                seen["indexed"] += index.keys.size
                seen["requested"] += c.pair_users.size
                found = np.isin(c.pair_users * nu + c.pair_cands, index.keys)
                seen["unindexed"] += int(np.count_nonzero(~found))
                seen["positive"] += int(np.count_nonzero(sigma > 0))
    assert min(seen.values()) > 100, seen


def test_corating_index_keeps_pairs_one_above_the_minimum_overlap():
    # user 1 co-rates items 0-2 with user 2 and items 0-1 with user 0
    store = RatingStore(3, 3, [0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 0, 1, 2, 0, 1, 2],
                        [4.0, 1.0, 1.0, 3.0, 5.0, 2.0, 3.0, 5.0])
    index = CoRatings(store, np.arange(3), 3)
    assert index.keys.tolist() == [1 * 3 + 2]
    assert index.ptr.tolist() == [0, 3]
    assert index.pos_u.dtype == index.pos_v.dtype == np.int32
    assert index.pos_u.tolist() == [2, 3, 4]
    assert index.pos_v.tolist() == [5, 6, 7]
    # user 1's rating of item 2 held out of fold 0: {1, 2} keeps 2 co-rated items
    label = np.full(len(store), -1)
    label[4] = 0
    sigma = index.pearson(label)[0]
    assert sigma.tolist() == [1.0]
    users, cands = np.array([1, 2, 1]), np.array([2, 1, 0])
    assert index.of(sigma, users, cands).tolist() == [1.0, 1.0, 0.0]
    # item 1 held out too: one co-rated item left, which has no variance
    label[3] = 0
    assert index.pearson(label)[0].tolist() == [0.0]
    # listed from user 2 alone, the pair keeps its key, with user 2's side first
    alone = CoRatings(store, np.array([2]), 3)
    assert alone.keys.tolist() == [1 * 3 + 2]
    assert (alone.pos_u.tolist(), alone.pos_v.tolist()) == ([5, 6, 7], [2, 3, 4])


def test_corating_chunks_do_not_change_results(monkeypatch):
    """One user or pair per chunk, or one chunk for everything: the same
    index, the same sigma and the same report."""
    rng = np.random.default_rng(85)
    configs = [make_config("U2UCF"), make_config("MTR", beta=0.3)]
    for _ in range(4):
        d = random_dataset(rng, max_users=30, max_items=15, max_ratings=250)
        plan = split_folds(d, 3, seed=int(rng.integers(1 << 30)))
        got = []
        for chunk in (recommender._CORATE_CHUNK, 1, 10**12):
            monkeypatch.setattr(recommender, "_CORATE_CHUNK", chunk)
            index = CoRatings(d.ratings, np.arange(d.num_users), 2)
            # every other user: pairs with unlisted users come from several chunks
            part = CoRatings(d.ratings, np.arange(0, d.num_users, 2), 1)
            assert (np.diff(part.keys) > 0).all()
            folds = index.pearson(plan.assignment, 3)
            # row f is fold f reduced alone, bit for bit
            for f in range(3):
                alone = index.pearson(np.where(plan.assignment == f, 0, -1))
                assert np.array_equal(folds[f], alone[0])
            report = run_experiment(d, configs, plan, k=3)
            got.append((index.keys, index.ptr, index.pos_u, index.pos_v,
                        folds, part.keys, part.ptr, part.pos_u,
                        part.pos_v, part.pearson(), report.to_tsv(), report.to_summary_json()))
        for other in got[1:]:
            for a, b in zip(got[0], other):
                assert np.array_equal(a, b)


def test_jaccard_and_relatedness_match_naive():
    rng = np.random.default_rng(82)
    seen = dict(friendless_user=0, friendless_pair=0, overlap=0, friends=0)
    for _ in range(40):
        d = random_dataset(rng)
        g = d.social
        _, _, friends = reference.plain_views(d)
        for u in range(g.num_users):
            vs = np.array([v for v in range(g.num_users) if v != u])
            jac = jaccard_many(g, u, vs)
            direct = relatedness(g, u, vs, "direct")
            inter = relatedness(g, u, vs, "intersection")
            for n, v in enumerate(vs.tolist()):
                assert abs(jac[n] - reference.naive_jaccard(friends, u, v)) <= 1e-12
                assert direct[n] == reference.naive_rel(friends, "direct", u, v)
                want = reference.naive_rel(friends, "intersection", u, v)
                assert abs(inter[n] - want) <= 1e-12
                if not friends[u] and not friends[v]:
                    seen["friendless_pair"] += 1
                elif v in friends[u]:
                    seen["friends"] += 1
                elif jac[n] > 0:
                    seen["overlap"] += 1
            if not friends[u]:
                seen["friendless_user"] += 1
    assert min(seen.values()) > 10, seen


def wide_graph(rng, num_users: int) -> tuple[SocialGraph, dict[int, set[int]]]:
    """A random graph over more users than one bitset word holds, with
    edges at the word edges (63, 64, 127) and at the last handle, and
    about a tenth of the users friendless."""
    friendless = rng.random(num_users) < 0.1
    ends = [63, 64, 127, num_users - 1]
    friendless[ends] = False
    social_users = np.flatnonzero(~friendless)
    pairs = rng.choice(social_users, size=(4 * num_users, 2))
    pairs = np.concatenate([pairs, np.column_stack([ends, rng.choice(social_users, 4)]),
                            [[63, 64], [64, 127], [127, num_users - 1]]])
    friends: dict[int, set[int]] = {u: set() for u in range(num_users)}
    for a, b in pairs.tolist():
        if a != b:
            friends[a].add(b)
            friends[b].add(a)
    return SocialGraph(num_users, pairs), friends


def test_jaccard_bitsets_match_naive_on_wide_graphs(monkeypatch):
    """Exactly, past one uint64 word, for many repeated and unsorted query
    users, and with the bitset cut into chunks of one or a few users."""
    rng = np.random.default_rng(87)
    seen = dict(friendless=0, overlap=0, chunked=0, word_edges=0)
    for trial in range(12):
        num_users = int(rng.choice([130, 150, 193, 200]))  # none a multiple of 64
        g, friends = wide_graph(rng, num_users)
        us = rng.integers(0, num_users, 600)
        vs = rng.integers(0, num_users, 600)
        us[:8] = [63, 64, 127, num_users - 1, 64, 63, num_users - 1, 127]
        want = [reference.naive_jaccard(friends, u, v) for u, v in zip(us.tolist(), vs.tolist())]
        words = (num_users + 63) // 64
        for rows in (None, 1, 3):
            if rows is not None:
                monkeypatch.setattr(social, "_BITSET_BYTES", 8 * words * rows)
                seen["chunked"] += 1
            assert jaccard_many(g, us, vs).tolist() == want, rows
        monkeypatch.undo()
        seen["friendless"] += sum(not friends[u] for u in us.tolist())
        seen["overlap"] += sum(w not in (0.0, 1.0) for w in want)
        seen["word_edges"] += sum(w > 0 for w in want[:8])
    assert min(seen.values()) > 20, seen


def naive_best_k(group_at: np.ndarray, values: np.ndarray, k) -> list[int]:
    """Groups ascending; in each, entries sorted by (-value, input position), first k."""
    limit = np.broadcast_to(k, group_at.shape)
    members: dict[int, list[int]] = {}
    for n, g in enumerate(group_at.tolist()):
        members.setdefault(g, []).append(n)
    out: list[int] = []
    for g in sorted(members):
        ranked = sorted(members[g], key=lambda n: (-values[n], n))
        out.extend(ranked[: int(limit[members[g][0]])])
    return out


def hard_values(rng, n: int) -> np.ndarray:
    """Values one ulp apart, infinities, subnormals, mixed signs and signed zeros."""
    tiny = np.finfo(np.float64).smallest_subnormal
    base = np.array([
        -np.inf, -1e300, -2.5, -tiny, -0.0, 0.0, tiny, 3 * tiny, 1e-310, 0.1, 1.0, 0.5,
        7.25, 1e300, np.inf])
    values = rng.choice(base, n)
    # a step of one or two ulps, up or down, keeps infinities where they are
    steps = rng.integers(0, 3, n)
    for _ in range(2):
        stepped = (steps > 0) & np.isfinite(values)
        up = rng.random(n) < 0.5
        values[stepped] = np.nextafter(values[stepped], np.where(up, np.inf, -np.inf)[stepped])
        steps -= 1
    return values


def test_best_k_matches_naive_order():
    rng = np.random.default_rng(83)
    pool = np.array([-1.5, -0.0, 0.0, 0.25, 0.5, 2.0])
    seen = dict(smaller=0, equal=0, larger=0, signed_zeros=0, per_entry_k=0,
                all_fit=0, one_ulp=0, high_groups=0)
    for trial in range(360):
        if trial < 300:
            n = int(rng.integers(1, 60))
            groups = int(rng.integers(1, 8))
            values = np.where(rng.random(n) < 0.7, rng.choice(pool, n), rng.normal(size=n))
        else:  # the value code keeps only some of its bits
            n = int(rng.integers(1000, 4000))
            groups = int(rng.integers(1, 40))
            values = hard_values(rng, n)
        group_at = rng.integers(0, groups, n)  # a group's entries need not be adjacent
        if trial >= 330:  # group ids near 2**20
            group_at += (1 << 20) - groups
            seen["high_groups"] += 1
        size = np.bincount(group_at)
        if rng.random() < 0.5:
            k = int(rng.integers(1, 8) if trial < 300 else rng.integers(1, 200))
            limit = np.full(size.size, k)
        else:  # one limit per group, given per entry
            limit = rng.integers(1, 8 if trial < 300 else 200, size.size)
            k = limit[group_at]
            seen["per_entry_k"] += 1
        if rng.random() < 0.2:  # every group fits under its limit
            limit = np.maximum(limit, size + rng.integers(0, 2, size.size))
            k = limit[group_at]
        assert best_k(group_at, values, k).tolist() == naive_best_k(group_at, values, k)
        present = np.flatnonzero(size)
        seen["all_fit"] += bool((size[present] <= limit[present]).all())
        for g in present:
            key = ("smaller", "equal", "larger")[int(np.sign(size[g] - limit[g])) + 1]
            seen[key] += 1
            signs = np.signbit(values[(group_at == g) & (values == 0.0)])
            seen["signed_zeros"] += bool(signs.any() and not signs.all())
            mine = np.unique(values[group_at == g])
            seen["one_ulp"] += bool((np.nextafter(mine[:-1], np.inf) == mine[1:]).any())
    assert min(seen.values()) > 20, seen


def test_best_k_edge_cases():
    assert best_k(np.zeros(0, np.int64), np.zeros(0), 3).size == 0
    assert best_k(np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64)).size == 0
    # -0.0 and 0.0 tie, so input position decides
    for values in ([-0.0, 0.0], [0.0, -0.0]):
        assert best_k(np.zeros(2, np.int64), np.array(values), 1).tolist() == [0]


def naive_predict_block(c, influence: np.ndarray, neighbor_counts) -> tuple:
    """(values, is_model, chosen) of every (configuration, slot), one at a
    time: positive entries sorted by (-influence, candidate), the first
    ``neighbor_counts[n]`` kept, their terms summed one by one."""
    num_configs, num_entries = influence.shape
    size = c.slot_items.size
    values = np.empty((num_configs, size))
    is_model = np.zeros((num_configs, size), dtype=bool)
    chosen = []
    cands = c.pair_cands[c.pair_at]
    for n in range(num_configs):
        for s in range(size):
            entries = [e for e in range(num_entries)
                       if c.slot_at[e] == s and influence[n, e] > 0.0]
            entries.sort(key=lambda e: (-influence[n, e], cands[e]))
            kept = entries[:neighbor_counts[n]]
            num = den = 0.0
            for e in kept:
                num += float(influence[n, e] * c.deviations[e])
                den += float(influence[n, e])
            mean = float(c.slot_means[s])
            values[n, s] = min(max(mean + num / den if kept else mean, RATING_MIN), RATING_MAX)
            is_model[n, s] = bool(kept)
            chosen.extend(n * num_entries + e for e in kept)
    return values, is_model, chosen


def test_predict_block_matches_naive_selection_and_sums():
    """Bit for bit, on influence with ties, zeros and negatives, and with
    neighbor counts that cut some slots or none, or that keep no neighbor."""
    rng = np.random.default_rng(86)
    pool = np.array([-0.5, -0.0, 0.0, 0.0, 0.125, 0.25, 0.25, 0.5, 1.0])
    seen = dict(cut=0, uncut=0, zero_count=0, ties=0, empty_slot=0, fallback=0, model=0)
    for _ in range(150):
        d = random_dataset(rng, max_users=12, max_items=8, max_ratings=60)
        store = d.ratings
        slots = rng.choice(len(store), size=int(rng.integers(1, min(len(store), 12) + 1)),
                           replace=False)
        slots.sort()  # canonical order: slot users ascend, as in a block
        c = block_candidates(store, store.user_idx[slots], store.item_idx[slots])
        num_configs = int(rng.integers(1, 5))
        shape = (num_configs, c.slot_at.size)
        influence = np.where(rng.random(shape) < 0.6, rng.choice(pool, shape),
                             rng.normal(0.3, 0.4, shape))
        sizes = np.array([np.bincount(c.slot_at[row > 0.0], minlength=c.slot_items.size)
                          for row in influence]).reshape(num_configs, -1)
        if rng.random() < 0.5:  # limits that cut somewhere, unless no slot has enough
            counts = rng.integers(0, 4, num_configs)  # 0 keeps no neighbor
        else:
            counts = sizes.max(axis=1, initial=0) + rng.integers(0, 3, num_configs)
            counts = np.maximum(counts, 1)
        got = predict_block(c, influence, counts.tolist())
        values, is_model, chosen = naive_predict_block(c, influence, counts.tolist())
        assert got.values.tobytes() == values.tobytes()
        assert (got.is_model == is_model).all()
        assert got.chosen.tolist() == chosen
        cut = (sizes > counts[:, None]).any()
        seen["cut" if cut else "uncut"] += 1
        seen["zero_count"] += bool((counts == 0).any())
        for row in influence:
            positive = row[row > 0.0]
            seen["ties"] += positive.size > np.unique(positive).size
        seen["empty_slot"] += bool((np.bincount(c.slot_at, minlength=c.slot_items.size) == 0).any())
        seen["fallback"] += int(np.count_nonzero(~is_model))
        seen["model"] += int(np.count_nonzero(is_model))
    assert min(seen.values()) > 20, seen
