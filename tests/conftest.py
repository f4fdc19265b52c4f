"""Shared fixtures: one hand-checkable dataset and a random generator."""

from __future__ import annotations

import numpy as np
import pytest

from trustcf import Dataset, Interner, ItemCategories, make_dataset

RATING_GRID = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)


def build_tiny() -> Dataset:
    """Five users, four items, everything small enough to check by hand.

    Handles (ids intern in sorted order):
        users  alice=0 bob=1 carol=2 dave=3 erin=4
        items  apple=0 bread=1 corn=2 date=3
    """
    return make_dataset(
        provenance="synthetic",
        ratings=[
            ("alice", "apple", 4), ("alice", "bread", 2), ("alice", "corn", 3),
            ("bob", "apple", 5), ("bob", "bread", 1), ("bob", "corn", 4), ("bob", "date", 2),
            ("carol", "apple", 3), ("carol", "bread", 3), ("carol", "date", 4),
            ("dave", "apple", 2), ("dave", "date", 5),
            ("erin", "bread", 4),
        ],
        friends=[("alice", "bob"), ("alice", "carol"), ("bob", "dave")],
        user_counters={
            "elite_years": {"alice": 2, "bob": 4},
            "more": {"bob": 3, "carol": 1},
            "thx": {"bob": 1},
            "gw": {"carol": 1},
            "fans": {"alice": 8, "bob": 16, "dave": 4},
            "review_count": {"alice": 3, "bob": 4, "carol": 3, "dave": 2, "erin": 1},
            "tip_count": {"bob": 1, "dave": 2},
            "tip_likes": {"bob": 2},
            "review_useful": {"alice": 3, "bob": 10, "carol": 5, "dave": 3, "erin": 2},
        },
        review_counters={
            "useful": {
                ("alice", "apple"): 2, ("bob", "apple"): 6,
                ("carol", "apple"): 1, ("dave", "apple"): 3,
                ("alice", "bread"): 1, ("erin", "bread"): 2,
                ("bob", "date"): 4, ("carol", "date"): 4,
            },
        },
        categories={
            "apple": {"fruit", "snack"},
            "bread": {"grain"},
            "corn": {"vegetable", "grain"},
            "date": {"fruit"},
        },
    )


@pytest.fixture
def tiny() -> Dataset:
    return build_tiny()


def random_dataset(
    rng: np.random.Generator,
    max_users: int = 50,
    max_items: int = 30,
    max_ratings: int = 200,
) -> Dataset:
    """A random synthetic dataset exercising every structure."""
    nu = int(rng.integers(3, max_users + 1))
    ni = int(rng.integers(2, max_items + 1))
    users = [f"u{n:03d}" for n in range(nu)]
    items = [f"i{n:03d}" for n in range(ni)]

    n_ratings = int(rng.integers(1, min(max_ratings, nu * ni) + 1))
    cells = rng.choice(nu * ni, size=n_ratings, replace=False)
    values = rng.choice(RATING_GRID, size=n_ratings)
    ratings = [
        (users[int(c) // ni], items[int(c) % ni], float(v))
        for c, v in zip(cells, values)
    ]

    n_edges = int(rng.integers(0, 3 * nu))
    friends = []
    for _ in range(n_edges):
        a, b = rng.choice(nu, size=2, replace=False)
        friends.append((users[int(a)], users[int(b)]))

    def user_counter(high: int, prob: float) -> dict[str, int]:
        mask = rng.random(nu) < prob
        counts = rng.integers(0, high, size=nu)
        return {users[n]: int(counts[n]) for n in range(nu) if mask[n] and counts[n]}

    user_counters = {
        "elite_years": user_counter(10, 0.4),
        "more": user_counter(20, 0.5),
        "thx": user_counter(20, 0.5),
        "gw": user_counter(20, 0.5),
        "fans": user_counter(40, 0.5),
        "tip_likes": user_counter(30, 0.4),
        "tip_count": user_counter(12, 0.4),
        "review_count": user_counter(30, 0.8),
        "review_useful": user_counter(25, 0.5),
        "review_funny": user_counter(25, 0.4),
        "review_cool": user_counter(25, 0.4),
    }

    review_counters: dict[str, dict[tuple[str, str], int]] = {}
    for name in ("useful", "funny", "cool"):
        mask = rng.random(n_ratings) < 0.4
        counts = rng.integers(1, 8, size=n_ratings)
        review_counters[name] = {
            (u, i): int(c)
            for (u, i, _), keep, c in zip(ratings, mask, counts)
            if keep
        }

    pool = [f"tag{n}" for n in range(8)]
    categories = {}
    for item in items:
        n_tags = int(rng.integers(0, 4))
        if n_tags:
            chosen = rng.choice(len(pool), size=n_tags, replace=False)
            categories[item] = {pool[int(t)] for t in chosen}

    return make_dataset(
        provenance="synthetic",
        ratings=ratings,
        friends=friends,
        user_counters=user_counters,
        review_counters=review_counters,
        categories=categories,
        extra_users=users,
        extra_items=items,
    )



# Tags of wide_categories: three uint64 words of ItemCategories.bits, the
# last partly used.  Each tagged item draws from both ends of every word, so
# shared tags fall in every word.
WIDE_TAGS = 130
_WIDE_COMMON = (0, 1, 62, 63, 64, 65, 126, 127, 128, 129)


def wide_categories(rng: np.random.Generator, num_items: int) -> ItemCategories:
    """Random tags ``w000`` to ``w129`` (tag id t is ``w{t:03d}``, carried
    or not) on about four items in five; the others stay untagged."""
    items, tag_ids = [], []
    for i in range(num_items):
        if rng.random() < 0.2:
            continue
        common = rng.choice(_WIDE_COMMON, size=int(rng.integers(1, 5)), replace=False)
        rare = rng.integers(0, WIDE_TAGS, size=int(rng.integers(0, 3)))
        chosen = np.concatenate((common, rare)).tolist()
        items += [i] * len(chosen)
        tag_ids += chosen
    names = Interner([f"w{t:03d}" for t in range(WIDE_TAGS)])
    return ItemCategories.from_columns(num_items, np.array(items, dtype=np.int64), names,
                                       np.array(tag_ids, dtype=np.int64))
