"""Friendship graph and the two social closeness measures."""

from __future__ import annotations

import numpy as np
import pytest

from trustcf import SocialGraph, jaccard, rel_direct, rel_social_intersection
from trustcf.errors import UnknownUser

from conftest import random_dataset


class TestSocialGraph:
    def test_edges_are_symmetric_and_deduplicated(self):
        g = SocialGraph(4, [(0, 1), (1, 0), (2, 3), (2, 3), (1, 1)])
        assert sorted(g.edges()) == [(0, 1), (2, 3)]
        assert g.num_edges() == 2
        assert list(g.friends_of(0)) == [1]
        assert list(g.friends_of(1)) == [0]
        assert g.degree(1) == 1
        # self-loop was dropped
        assert not g.has_edge(1, 1)

    def test_friends_sorted(self):
        g = SocialGraph(5, [(3, 0), (3, 4), (3, 1)])
        assert list(g.friends_of(3)) == [0, 1, 4]

    def test_degree_array(self):
        g = SocialGraph(3, [(0, 1)])
        assert list(g.degree_array()) == [1, 1, 0]

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            SocialGraph(2, [(0, 5)])

    @pytest.mark.parametrize("us, vs", [([0], [3]), ([3], [0]), ([-1], [1]), ([0, 1], [1, -2])])
    def test_has_edges_rejects_unknown_users(self, us, vs):
        # (0, 3) would pack to the key of the edge (1, 0) on three users
        g = SocialGraph(3, [(0, 1)])
        with pytest.raises(UnknownUser):
            g.has_edges(np.array(us), np.array(vs))
        with pytest.raises(UnknownUser):
            g.has_edge(us[-1], vs[-1])


class TestRelDirect:
    def test_friend_and_stranger(self):
        g = SocialGraph(3, [(0, 1)])
        assert rel_direct(g, 0, 1) == 1.0
        assert rel_direct(g, 1, 0) == 1.0
        assert rel_direct(g, 0, 2) == 0.0

    def test_same_user_rejected(self):
        g = SocialGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            rel_direct(g, 1, 1)

    def test_unknown_user(self):
        g = SocialGraph(2, [(0, 1)])
        with pytest.raises(UnknownUser):
            rel_direct(g, 0, 9)


class TestJaccard:
    def test_half_overlap(self):
        # friend sets {a,b,c} and {b,c,d}: two shared out of four total
        g = SocialGraph(6, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5)])
        assert jaccard(g, 0, 1) == pytest.approx(0.5)

    def test_identical_sets(self):
        g = SocialGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert jaccard(g, 0, 1) == pytest.approx(1.0)

    def test_both_isolated(self):
        g = SocialGraph(3, [(1, 2)])
        # user 0 has no friends; compare against a hypothetical twin
        g2 = SocialGraph(2, [])
        assert jaccard(g2, 0, 1) == 0.0

    def test_mutual_friendship_without_shared_friends(self):
        g = SocialGraph(2, [(0, 1)])
        # friend sets are {1} and {0}: disjoint
        assert jaccard(g, 0, 1) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = random_dataset(rng)
            g = d.social
            n = d.ratings.num_users
            if n < 2:
                continue
            for _ in range(20):
                u, v = rng.choice(n, size=2, replace=False)
                s = jaccard(g, int(u), int(v))
                assert 0.0 <= s <= 1.0
                assert s == jaccard(g, int(v), int(u))


class TestRelSocialIntersection:
    def test_direct_friendship_dominates(self):
        # 0 and 1 are friends with disjoint other circles: Jaccard would be 0
        g = SocialGraph(4, [(0, 1), (0, 2), (1, 3)])
        assert rel_social_intersection(g, 0, 1) == 1.0

    def test_falls_back_to_jaccard_for_strangers(self):
        g = SocialGraph(6, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5)])
        assert rel_social_intersection(g, 0, 1) == pytest.approx(0.5)

    def test_strangers_without_common_friends(self):
        g = SocialGraph(4, [(2, 0), (3, 1)])
        assert rel_social_intersection(g, 2, 3) == 0.0

    def test_never_below_direct(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = random_dataset(rng)
            g = d.social
            n = d.ratings.num_users
            if n < 2:
                continue
            for _ in range(15):
                u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
                assert rel_social_intersection(g, u, v) >= rel_direct(g, u, v)
