"""Seeded synthetic corpora for the benchmark, in memory and as raw dumps.

:func:`synth_corpus` builds the same dataset as the acceptance suite's
generator of the same name for the same arguments (``tools.py
check-corpus`` verifies this), so a benchmark corpus at scale ``s`` is the acceptance
corpus shrunk by ``s`` in every dimension: ratings per user, raters per
item and friends per user stay what they are at full scale.

:func:`write_yelp_dump` writes a corpus as the four Yelp JSON-lines files
that ``trustcf ingest --source yelp`` reads.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from trustcf import (
    Dataset,
    FeedbackTable,
    IngestWarnings,
    Interner,
    ItemCategories,
    RatingStore,
    ReviewFeedback,
    SocialGraph,
)

# The acceptance suite's large-scale corpus: users, items, ratings, edges.
FULL_SCALE = (25_000, 75_000, 1_300_000, 300_000)

TAG_POOL = tuple(f"tag{n:02d}" for n in range(20))

# Half the tag pool: the category closure the data-roundtrip ingest applies.
CLOSURE = frozenset(TAG_POOL[:10])


def scaled(scale: float) -> tuple[int, int, int, int]:
    """The acceptance corpus dimensions multiplied by ``scale``."""
    return tuple(int(round(n * scale)) for n in FULL_SCALE)


def synth_corpus(num_users: int, num_items: int, num_ratings: int,
                 num_edges: int, seed: int) -> Dataset:
    """A random corpus assembled directly from the core structures.

    Draws from one generator in a fixed order; any change to the order
    or to a distribution changes every corpus, so keep it in step with
    the acceptance suite's copy.
    """
    rng = np.random.default_rng(seed)
    cells = np.unique(rng.integers(
        0, num_users * num_items, size=int(num_ratings * 1.02), dtype=np.int64))
    while cells.size < num_ratings:
        extra = rng.integers(
            0, num_users * num_items, size=num_ratings // 10, dtype=np.int64)
        cells = np.unique(np.concatenate([cells, extra]))
    rng.shuffle(cells)
    cells = cells[:num_ratings]
    store = RatingStore(
        num_users, num_items,
        cells // num_items, cells % num_items,
        rng.choice(np.arange(1.0, 5.5, 0.5), size=num_ratings),
    )

    a = rng.integers(0, num_users, size=num_edges)
    b = rng.integers(0, num_users, size=num_edges)
    keep = a != b
    social = SocialGraph(num_users, np.column_stack([a[keep], b[keep]]))

    def counter(high):
        return rng.integers(0, high, size=num_users)

    feedback = FeedbackTable(num_users, {
        "elite_years": counter(8),
        "more": counter(30), "thx": counter(30), "gw": counter(30),
        "fans": counter(50),
        "review_count": counter(40), "tip_count": counter(15),
        "tip_likes": counter(25),
        "review_useful": counter(60), "review_funny": counter(40),
        "review_cool": counter(40),
    })
    review_feedback = ReviewFeedback(store, {
        name: rng.integers(0, 6, size=num_ratings)
        for name in ("useful", "funny", "cool")
    })

    tagged = rng.random(num_items) < 0.7
    tags = {
        i: {TAG_POOL[int(t)] for t in rng.integers(0, 20, size=rng.integers(1, 4))}
        for i in np.flatnonzero(tagged)
    }
    return Dataset(
        users=Interner(f"u{n:06d}" for n in range(num_users)),
        items=Interner(f"i{n:06d}" for n in range(num_items)),
        ratings=store,
        social=social,
        feedback=feedback,
        review_feedback=review_feedback,
        categories=ItemCategories(num_items, tags),
        provenance="synthetic",
        warnings=IngestWarnings(),
    )


def _dump(path: Path, records) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as out:
        for record in records:
            out.write(json.dumps(record, separators=(",", ":")) + "\n")
            count += 1
    return count


def write_yelp_dump(d: Dataset, directory: Path) -> int:
    """Write ``d`` as business/review/user/tip JSON lines; return the line count.

    Review feedback, compliments, fans, elite years, friends and tips map
    onto the fields the Yelp reader takes them from.  The per-user review
    and tip totals the reader derives from these lines replace the
    corpus's own counters of the same name.
    """
    directory.mkdir(parents=True, exist_ok=True)
    users, items, store = d.users, d.items, d.ratings

    def businesses():
        for i in range(d.num_items):
            tags = sorted(d.categories.of(i))
            yield {"business_id": items.external(i),
                   "categories": ", ".join(tags) if tags else None}

    rf = {name: d.review_feedback.col(name) for name in ("useful", "funny", "cool")}

    def reviews():
        for pos in range(len(store)):
            yield {
                "user_id": users.external(int(store.user_idx[pos])),
                "business_id": items.external(int(store.item_idx[pos])),
                "stars": float(store.value[pos]),
                "useful": int(rf["useful"][pos]),
                "funny": int(rf["funny"][pos]),
                "cool": int(rf["cool"][pos]),
                "date": "2019-01-01",
            }

    fb = d.feedback

    def profiles():
        for u in range(d.num_users):
            yield {
                "user_id": users.external(u),
                "elite": ",".join(str(2005 + y) for y in range(int(fb.col("elite_years")[u]))),
                "compliment_more": int(fb.col("more")[u]),
                "compliment_note": int(fb.col("thx")[u]),
                "compliment_writer": int(fb.col("gw")[u]),
                "fans": int(fb.col("fans")[u]),
                "friends": ", ".join(users.external(int(v)) for v in d.social.friends_of(u)),
            }

    def tips():
        for u in range(d.num_users):
            likes = int(fb.col("tip_likes")[u])
            for n in range(int(fb.col("tip_count")[u])):
                yield {"user_id": users.external(u), "likes": likes if n == 0 else 0}

    return (
        _dump(directory / "business.json", businesses())
        + _dump(directory / "review.json", reviews())
        + _dump(directory / "user.json", profiles())
        + _dump(directory / "tip.json", tips())
    )


def expected_filtered(d: Dataset, min_ratings: int, closure: frozenset[str]) -> dict:
    """What filtering a dump of ``d`` must leave, from the corpus arrays alone.

    An oracle for ``ingest_yelp`` followed by ``apply_filters`` (and for
    saving and reloading the result): entity counts, the exact sum of
    the kept ratings (half-star values add up exactly) and the number of
    friend edges between kept users.
    """
    item_keep = np.array([bool(d.categories.of(i) & closure)
                          for i in range(d.num_items)], dtype=bool)
    store = d.ratings
    rating_keep = item_keep[store.item_idx]
    per_user = np.bincount(store.user_idx[rating_keep], minlength=d.num_users)
    user_keep = per_user >= min_ratings
    kept = rating_keep & user_keep[store.user_idx]
    edges = sum(1 for a, b in d.social.edges() if user_keep[a] and user_keep[b])
    return {
        "users": int(user_keep.sum()),
        "items": int(item_keep.sum()),
        "ratings": int(kept.sum()),
        "rating_sum": float(store.value[kept].sum()),
        "friend_edges": edges,
    }
