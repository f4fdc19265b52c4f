"""In-memory dataset model: interned ids, ratings, feedback, categories.

External string identifiers are interned once into dense integer handles
(0..n-1) and every other structure is keyed by handle.  Ratings live in a
single canonical triple array sorted by (user, item); a user-major and an
item-major view are both derived from it, so per-user and per-item scans
are O(degree) slices over shared storage.

All containers are frozen after construction.  Mutating a dataset means
building a new one (see :func:`apply_filters`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import UnknownUser

# Per-user counters a dataset may carry.  Absent counters read as zero.
USER_COUNTERS = (
    "elite_years",
    "more",
    "thx",
    "gw",
    "fans",
    "tip_likes",
    "review_useful",
    "review_funny",
    "review_cool",
    "nhelpful_total",
    "review_count",
    "tip_count",
)

# Per-review counters, keyed by (user, item) pairs that carry a rating.
REVIEW_COUNTERS = ("useful", "funny", "cool", "nhelpful")

RATING_MIN = 1.0
RATING_MAX = 5.0

PROVENANCES = ("yelp", "librarything", "synthetic")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def csr_rows(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries of several CSR rows, concatenated in the order of ``rows``.

    Returns ``(row_at, flat)``: entry n is stored at ``flat[n]`` and
    belongs to ``rows[row_at[n]]``; each row keeps its stored order.
    """
    lo = ptr[rows]
    lengths = ptr[rows + 1] - lo
    row_at = np.repeat(np.arange(rows.size), lengths)
    starts = np.cumsum(lengths) - lengths
    flat = np.arange(row_at.size) + np.repeat(lo - starts, lengths)
    return row_at, flat


class Interner:
    """Bijection between external string ids and dense integer handles."""

    __slots__ = ("_ids", "_index")

    def __init__(self, ids: Iterable[str] = ()):
        self._ids: list[str] = list(ids)
        self._index: dict[str, int] = {s: n for n, s in enumerate(self._ids)}
        if len(self._index) != len(self._ids):
            raise ValueError("duplicate external ids")

    def intern(self, external_id: str) -> int:
        handle = self._index.get(external_id)
        if handle is None:
            handle = len(self._ids)
            self._ids.append(external_id)
            self._index[external_id] = handle
        return handle

    def handle(self, external_id: str) -> int:
        """Handle for a known id; KeyError if never interned."""
        return self._index[external_id]

    def external(self, handle: int) -> str:
        return self._ids[handle]

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, external_id: str) -> bool:
        return external_id in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)


class RatingStore:
    """User-major and item-major views over one set of rating triples.

    The canonical order is ascending (user, item); ``positions`` returned
    by :meth:`raters_of` index into that order, which is what per-review
    feedback aligns with.
    """

    __slots__ = (
        "num_users",
        "num_items",
        "user_idx",
        "item_idx",
        "value",
        "_u_ptr",
        "_i_order",
        "_i_ptr",
        "_user_mean",
    )

    def __init__(
        self,
        num_users: int,
        num_items: int,
        users: np.ndarray,
        items: np.ndarray,
        values: np.ndarray,
    ):
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (users.shape == items.shape == values.shape) or users.ndim != 1:
            raise ValueError("ratings arrays must be 1-d and aligned")
        if users.size:
            if users.min() < 0 or users.max() >= num_users:
                raise ValueError("user handle out of range")
            if items.min() < 0 or items.max() >= num_items:
                raise ValueError("item handle out of range")
            if values.min() < RATING_MIN or values.max() > RATING_MAX:
                raise ValueError(f"ratings must lie in [{RATING_MIN}, {RATING_MAX}]")

        order = np.lexsort((items, users))
        users, items, values = users[order], items[order], values[order]
        if users.size > 1:
            same = (users[1:] == users[:-1]) & (items[1:] == items[:-1])
            if same.any():
                raise ValueError("duplicate (user, item) rating pair")

        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.user_idx = _frozen(users)
        self.item_idx = _frozen(items)
        self.value = _frozen(values)

        counts = np.bincount(users, minlength=num_users)
        self._u_ptr = _frozen(np.concatenate(([0], np.cumsum(counts))))
        i_order = np.lexsort((users, items))
        self._i_order = _frozen(i_order)
        icounts = np.bincount(items, minlength=num_items)
        self._i_ptr = _frozen(np.concatenate(([0], np.cumsum(icounts))))

        with np.errstate(invalid="ignore"):
            sums = np.bincount(users, weights=values, minlength=num_users)
            self._user_mean = _frozen(sums / np.where(counts > 0, counts, 1))
        self._user_mean.setflags(write=True)
        self._user_mean[counts == 0] = np.nan
        self._user_mean.setflags(write=False)

    @classmethod
    def from_triples(
        cls,
        num_users: int,
        num_items: int,
        triples: Iterable[tuple[int, int, float]],
    ) -> "RatingStore":
        rows = list(triples)
        users = np.fromiter((t[0] for t in rows), dtype=np.int64, count=len(rows))
        items = np.fromiter((t[1] for t in rows), dtype=np.int64, count=len(rows))
        values = np.fromiter((t[2] for t in rows), dtype=np.float64, count=len(rows))
        return cls(num_users, num_items, users, items, values)

    def __len__(self) -> int:
        return int(self.user_idx.size)

    def items_of(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(items, values) rated by user u, items ascending."""
        self._check_user(u)
        lo, hi = self._u_ptr[u], self._u_ptr[u + 1]
        return self.item_idx[lo:hi], self.value[lo:hi]

    def raters_of(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(users, values, canonical positions) for item i, users ascending."""
        if not 0 <= i < self.num_items:
            raise IndexError(f"item handle {i} out of range")
        lo, hi = self._i_ptr[i], self._i_ptr[i + 1]
        pos = self._i_order[lo:hi]
        return self.user_idx[pos], self.value[pos], pos

    def items_of_many(
        self, users: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(user_at, items, values) of several users' rows, concatenated.

        Entry n belongs to ``users[user_at[n]]``; items ascend within a row.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.size and (users.min() < 0 or users.max() >= self.num_users):
            raise UnknownUser("user handle out of range")
        user_at, flat = csr_rows(self._u_ptr, users)
        return user_at, self.item_idx[flat], self.value[flat]

    def raters_of_many(
        self, items: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(item_at, users, values, positions) of several items, concatenated.

        Entry n belongs to ``items[item_at[n]]``; users ascend within an item.
        """
        items = np.asarray(items, dtype=np.int64)
        if items.size and (items.min() < 0 or items.max() >= self.num_items):
            raise IndexError("item handle out of range")
        item_at, flat = csr_rows(self._i_ptr, items)
        pos = self._i_order[flat]
        return item_at, self.user_idx[pos], self.value[pos], pos

    def rating_count_of(self, u: int) -> int:
        self._check_user(u)
        return int(self._u_ptr[u + 1] - self._u_ptr[u])

    def user_rating_counts(self) -> np.ndarray:
        return np.diff(self._u_ptr)

    def item_rating_counts(self) -> np.ndarray:
        return np.diff(self._i_ptr)

    def mean_of(self, u: int) -> float:
        """Mean of u's ratings; NaN when u has none."""
        self._check_user(u)
        return float(self._user_mean[u])

    def user_means(self) -> np.ndarray:
        return self._user_mean

    def triples(self) -> Iterator[tuple[int, int, float]]:
        for u, i, v in zip(self.user_idx, self.item_idx, self.value):
            yield int(u), int(i), float(v)

    def _check_user(self, u: int) -> None:
        if not 0 <= u < self.num_users:
            raise UnknownUser(f"user handle {u} out of range")


class FeedbackTable:
    """Per-user non-negative counters; columns absent from the table read 0."""

    __slots__ = ("num_users", "_cols")

    def __init__(self, num_users: int, columns: Mapping[str, np.ndarray] | None = None):
        self.num_users = int(num_users)
        self._cols: dict[str, np.ndarray] = {}
        for name, values in (columns or {}).items():
            if name not in USER_COUNTERS:
                raise ValueError(f"unknown user counter {name!r}")
            arr = np.asarray(values, dtype=np.int64)
            if arr.shape != (num_users,):
                raise ValueError(f"counter {name!r} must have one entry per user")
            if arr.size and arr.min() < 0:
                raise ValueError(f"counter {name!r} must be non-negative")
            self._cols[name] = _frozen(arr.copy())

    def col(self, name: str) -> np.ndarray:
        if name not in USER_COUNTERS:
            raise ValueError(f"unknown user counter {name!r}")
        got = self._cols.get(name)
        if got is None:
            got = _frozen(np.zeros(self.num_users, dtype=np.int64))
            self._cols[name] = got
        return got

    def present(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, c in self._cols.items() if c.any()))


class ReviewFeedback:
    """Per-review counters aligned with a RatingStore's canonical order.

    Entries exist exactly for (user, item) pairs that carry a rating; a
    review with no recorded feedback holds zeros.
    """

    __slots__ = ("store", "_cols", "_totals", "_item_max")

    def __init__(self, store: RatingStore, columns: Mapping[str, np.ndarray] | None = None):
        self.store = store
        n = len(store)
        self._cols: dict[str, np.ndarray] = {}
        for name, values in (columns or {}).items():
            if name not in REVIEW_COUNTERS:
                raise ValueError(f"unknown review counter {name!r}")
            arr = np.asarray(values, dtype=np.int64)
            if arr.shape != (n,):
                raise ValueError(f"review counter {name!r} must align with the ratings")
            if arr.size and arr.min() < 0:
                raise ValueError(f"review counter {name!r} must be non-negative")
            self._cols[name] = _frozen(arr.copy())

        totals = np.zeros(n, dtype=np.int64)
        for arr in self._cols.values():
            totals += arr
        self._totals = _frozen(totals)

        # cache: max feedback total per item, 0 for items with no feedback
        item_max = np.zeros(store.num_items, dtype=np.int64)
        if n:
            np.maximum.at(item_max, store.item_idx, totals)
        self._item_max = _frozen(item_max)

    def col(self, name: str) -> np.ndarray:
        if name not in REVIEW_COUNTERS:
            raise ValueError(f"unknown review counter {name!r}")
        got = self._cols.get(name)
        if got is None:
            got = _frozen(np.zeros(len(self.store), dtype=np.int64))
            self._cols[name] = got
        return got

    def present(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, c in self._cols.items() if c.any()))

    def totals(self) -> np.ndarray:
        return self._totals

    def item_max_totals(self) -> np.ndarray:
        return self._item_max

    def total_of(self, u: int, i: int) -> int:
        users, _, pos = self.store.raters_of(i)
        at = np.searchsorted(users, u)
        if at < users.size and users[at] == u:
            return int(self._totals[pos[at]])
        return 0


class ItemCategories:
    """Category tag sets per item handle; the empty set is permitted."""

    __slots__ = ("sets",)

    def __init__(self, num_items: int, tags: Mapping[int, Iterable[str]] | None = None):
        sets: list[frozenset[str]] = [frozenset()] * num_items
        for i, cats in (tags or {}).items():
            if not 0 <= i < num_items:
                raise ValueError(f"item handle {i} out of range")
            sets[i] = frozenset(str(c) for c in cats)
        self.sets: tuple[frozenset[str], ...] = tuple(sets)

    def of(self, i: int) -> frozenset[str]:
        return self.sets[i]

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class IngestWarnings:
    """Non-fatal oddities observed while reading raw dumps."""

    duplicate_ratings: int = 0
    dropped_unrated: int = 0


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of everything one source dump provides."""

    users: Interner
    items: Interner
    ratings: RatingStore
    social: "SocialGraph"
    feedback: FeedbackTable
    review_feedback: ReviewFeedback
    categories: ItemCategories
    provenance: str
    warnings: IngestWarnings = field(default=IngestWarnings(), compare=False)

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_items(self) -> int:
        return len(self.items)


def make_dataset(
    *,
    provenance: str,
    ratings: Iterable[tuple[str, str, float]],
    friends: Iterable[tuple[str, str]] = (),
    user_counters: Mapping[str, Mapping[str, int]] | None = None,
    review_counters: Mapping[str, Mapping[tuple[str, str], int]] | None = None,
    categories: Mapping[str, Iterable[str]] | None = None,
    extra_users: Iterable[str] = (),
    extra_items: Iterable[str] = (),
    warnings: IngestWarnings = IngestWarnings(),
) -> Dataset:
    """Build a Dataset from structures keyed by external string ids.

    Ids are interned in sorted order so two calls with the same content
    produce handle-identical datasets.  Review counters must refer to
    pairs that actually carry a rating.
    """
    from .social import SocialGraph

    rating_rows = list(ratings)
    friend_rows = list(friends)
    user_counters = user_counters or {}
    review_counters = review_counters or {}
    categories = categories or {}

    user_ids: set[str] = set(extra_users)
    item_ids: set[str] = set(extra_items)
    user_ids.update(u for u, _, _ in rating_rows)
    item_ids.update(i for _, i, _ in rating_rows)
    for a, b in friend_rows:
        user_ids.add(a)
        user_ids.add(b)
    for mapping in user_counters.values():
        user_ids.update(mapping)
    for mapping in review_counters.values():
        for u, i in mapping:
            user_ids.add(u)
            item_ids.add(i)
    item_ids.update(categories)

    users = Interner(sorted(user_ids))
    items = Interner(sorted(item_ids))

    store = RatingStore.from_triples(
        len(users),
        len(items),
        ((users.handle(u), items.handle(i), float(v)) for u, i, v in rating_rows),
    )

    pair_pos = {
        (int(u), int(i)): p
        for p, (u, i) in enumerate(zip(store.user_idx, store.item_idx))
    }
    review_cols: dict[str, np.ndarray] = {}
    for name, mapping in review_counters.items():
        col = np.zeros(len(store), dtype=np.int64)
        for (u, i), count in mapping.items():
            pos = pair_pos.get((users.handle(u), items.handle(i)))
            if pos is None:
                raise ValueError(f"review counter {name!r} for unrated pair ({u!r}, {i!r})")
            col[pos] = count
        review_cols[name] = col

    user_cols: dict[str, np.ndarray] = {}
    for name, mapping in user_counters.items():
        col = np.zeros(len(users), dtype=np.int64)
        for u, count in mapping.items():
            col[users.handle(u)] = count
        user_cols[name] = col

    graph = SocialGraph(
        len(users),
        ((users.handle(a), users.handle(b)) for a, b in friend_rows),
    )
    cats = ItemCategories(
        len(items), {items.handle(i): tags for i, tags in categories.items()}
    )
    return Dataset(
        users=users,
        items=items,
        ratings=store,
        social=graph,
        feedback=FeedbackTable(len(users), user_cols),
        review_feedback=ReviewFeedback(store, review_cols),
        categories=cats,
        provenance=provenance,
        warnings=warnings,
    )


def apply_filters(
    d: Dataset,
    min_ratings: int = 0,
    category_closure: Iterable[str] | None = None,
) -> Dataset:
    """Restrict a dataset to tagged items and sufficiently active users.

    The item filter runs first: when a closure is given, only items
    tagged with at least one closure category survive.  The user filter
    then runs once over the remaining ratings and keeps users holding at
    least ``min_ratings`` of them.  Handles are re-interned densely.
    The operation is idempotent for fixed arguments.
    """
    if min_ratings < 0:
        raise ValueError("min_ratings must be non-negative")

    if category_closure is not None:
        closure = frozenset(str(c) for c in category_closure)
        item_keep = np.fromiter(
            (bool(d.categories.of(i) & closure) for i in range(d.num_items)),
            dtype=bool,
            count=d.num_items,
        )
    else:
        item_keep = np.ones(d.num_items, dtype=bool)

    store = d.ratings
    rating_keep = item_keep[store.item_idx]
    counts = np.bincount(
        store.user_idx[rating_keep], minlength=d.num_users
    )
    user_keep = counts >= min_ratings

    old_users = np.flatnonzero(user_keep)
    old_items = np.flatnonzero(item_keep)
    user_map = np.full(d.num_users, -1, dtype=np.int64)
    user_map[old_users] = np.arange(old_users.size)
    item_map = np.full(d.num_items, -1, dtype=np.int64)
    item_map[old_items] = np.arange(old_items.size)

    users = Interner(d.users.external(int(u)) for u in old_users)
    items = Interner(d.items.external(int(i)) for i in old_items)

    keep = rating_keep & user_keep[store.user_idx]
    new_store = RatingStore(
        len(users),
        len(items),
        user_map[store.user_idx[keep]],
        item_map[store.item_idx[keep]],
        store.value[keep],
    )

    # canonical order is preserved under subsetting, so review columns map 1:1
    review_cols = {
        name: d.review_feedback.col(name)[keep]
        for name in d.review_feedback.present()
    }
    user_cols = {
        name: d.feedback.col(name)[old_users] for name in d.feedback.present()
    }

    from .social import SocialGraph

    edges = (
        (int(user_map[a]), int(user_map[b]))
        for a, b in d.social.edges()
        if user_keep[a] and user_keep[b]
    )
    cats = {
        int(item_map[i]): d.categories.of(int(i))
        for i in old_items
        if d.categories.of(int(i))
    }
    return Dataset(
        users=users,
        items=items,
        ratings=new_store,
        social=SocialGraph(len(users), edges),
        feedback=FeedbackTable(len(users), user_cols),
        review_feedback=ReviewFeedback(new_store, review_cols),
        categories=ItemCategories(len(items), cats),
        provenance=d.provenance,
    )


@dataclass(frozen=True)
class StatRow:
    name: str
    min: float
    max: float
    mean: float
    median: float
    mode: float
    defined: bool = True


@dataclass(frozen=True)
class StatsReport:
    provenance: str
    num_users: int
    num_items: int
    num_ratings: int
    num_friend_relations: int
    rating_sparsity: float | None
    friend_sparsity: float | None
    rows: tuple[StatRow, ...]

    def to_text(self) -> str:
        out = [
            f"provenance: {self.provenance}",
            f"users: {self.num_users}",
            f"items: {self.num_items}",
            f"ratings: {self.num_ratings}",
            f"friend relations: {self.num_friend_relations}",
            f"rating matrix sparsity: "
            f"{'-' if self.rating_sparsity is None else f'{self.rating_sparsity:.4f}'}",
            f"friend matrix sparsity: "
            f"{'-' if self.friend_sparsity is None else f'{self.friend_sparsity:.4f}'}",
            "",
            f"{'distribution':<48}{'min':>8}{'max':>8}{'mean':>12}{'median':>9}{'mode':>7}",
        ]
        for r in self.rows:
            if not r.defined:
                out.append(f"{r.name:<48}{'-':>8}{'-':>8}{'-':>12}{'-':>9}{'-':>7}")
            else:
                out.append(
                    f"{r.name:<48}{r.min:>8g}{r.max:>8g}{r.mean:>12.4f}"
                    f"{r.median:>9g}{r.mode:>7g}"
                )
        return "\n".join(out)


def _stat_row(name: str, values: np.ndarray) -> StatRow:
    values = np.asarray(values)
    if values.size == 0:
        return StatRow(name, float("nan"), float("nan"), float("nan"),
                       float("nan"), float("nan"), defined=False)
    uniq, freq = np.unique(values, return_counts=True)
    mode = uniq[int(np.argmax(freq))]  # smallest value among the most frequent
    return StatRow(
        name,
        float(values.min()),
        float(values.max()),
        float(values.mean()),
        float(np.median(values)),
        float(mode),
    )


def compute_stats(d: Dataset) -> StatsReport:
    """Population statistics in the layout the ingest command prints.

    Friend relations are counted as ordered pairs (each undirected edge
    contributes two), which is also the convention behind the friend
    matrix sparsity and the per-user friend-count mean.
    """
    degrees = d.social.degree_array()
    relations = int(degrees.sum())
    nu, ni, nr = d.num_users, d.num_items, len(d.ratings)
    rating_sparsity = 1.0 - nr / (nu * ni) if nu and ni else None
    friend_sparsity = 1.0 - relations / (nu * nu) if nu else None

    per_review = d.review_feedback.totals()
    per_user_review_fb = np.zeros(nu, dtype=np.int64)
    if nr:
        np.add.at(per_user_review_fb, d.ratings.user_idx, per_review)

    rows: list[StatRow] = []
    if d.provenance in ("yelp", "synthetic"):
        fb = d.feedback
        compliments = fb.col("more") + fb.col("thx") + fb.col("gw")
        rows += [
            _stat_row("elite years per user profile", fb.col("elite_years")),
            _stat_row("compliments (more+thx+gw) per user profile", compliments),
            _stat_row("fans per user profile", fb.col("fans")),
            _stat_row("review feedback (useful+funny+cool) per user", per_user_review_fb),
            _stat_row("tip likes per user", fb.col("tip_likes")),
            _stat_row("review feedback (useful+funny+cool) per review", per_review),
            _stat_row("friends per user", degrees),
        ]
    else:
        rows += [
            _stat_row("review feedback (nhelpful) per user", per_user_review_fb),
            _stat_row("review feedback (nhelpful) per review", per_review),
            _stat_row("friends per user", degrees),
        ]
    return StatsReport(
        provenance=d.provenance,
        num_users=nu,
        num_items=ni,
        num_ratings=nr,
        num_friend_relations=relations,
        rating_sparsity=rating_sparsity,
        friend_sparsity=friend_sparsity,
        rows=tuple(rows),
    )
