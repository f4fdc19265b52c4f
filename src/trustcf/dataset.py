"""In-memory dataset model: interned ids, ratings, feedback, categories.

External string identifiers are interned once into dense integer handles
(0..n-1) and every other structure is keyed by handle.  A handle is the
rank of its id among the ascending ids of its kind (:class:`Interner`
enforces it), so handle order is id order.  :func:`factorize` is the one
place that looks ids up row by row: it turns the id columns of one kind
into an interner and a column of handles each, which is what
:func:`build_dataset` takes.  From there on, filtering and writing work
per distinct id or by numpy takes.  Ratings live in a
single canonical triple array sorted by (user, item); a user-major and an
item-major view are both derived from it, so per-user and per-item scans
are O(degree) slices over shared storage.

A handle that a lookup or a constructor takes is range-checked by
:func:`check_handles`: one outside ``[0, n)`` raises ``UnknownUser`` for
a user, ``IndexError`` for an item (and from an :class:`Interner`) and
``ValueError`` in a constructor, as does one beyond int64.  -1 never
aliases the last id.  Block kernels (``ItemCategories.shared``) check
their handles too: one reduction per array per block.

All containers, interners included, are frozen after construction.
Mutating a dataset means building a new one (see :func:`apply_filters`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, compress
from math import isnan
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

# User counters read added up, by the trust facets and the statistics.  A
# review's counters are read added up too (ReviewFeedback.totals).  The
# builder rejects a dataset where one of these sums does not fit in int64.
COMPLIMENTS = ("more", "thx", "gw")
CONTRIBUTIONS = ("review_count", "tip_count")
RECEIVED_FEEDBACK = ("review_useful", "review_funny", "review_cool", "tip_likes")

RATING_MIN = 1.0
RATING_MAX = 5.0

PROVENANCES = ("yelp", "librarything", "synthetic")

_INT64_MAX = int(np.iinfo(np.int64).max)


class CounterOverflow(ValueError):
    """Row ``row`` of the ``table``-th counter table of its kind takes counter
    ``name``, or the sum of the counters ``group`` it is read in, beyond int64."""

    def __init__(self, name: str, table: int, row: int, group: tuple[str, ...] = ()):
        what = f"the sum {'+'.join(group)}" if len(group) > 1 else f"counter {name!r}"
        super().__init__(f"{what} does not fit in int64")
        self.name, self.table, self.row, self.group = name, table, row, group

    def __reduce__(self):
        return type(self), (self.name, self.table, self.row, self.group)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def check_handles(handles, count: int, kind: str, error: type[Exception]) -> np.ndarray:
    """``handles``, one or an array of them, as int64; raises ``error("<kind>
    handle is not an integer: <first bad>")`` for a float, bool or str, and
    ``error("<kind> handle out of range: <first bad>")`` for one outside
    ``[0, count)`` (a negative never counts from the end) or beyond int64."""
    given = np.asarray(handles)
    # Python ints beyond int64 are objects, and numpy reads [0, True] as
    # integers: so a list is scanned too, but an array or one integer is not
    if given.size and (given.dtype.kind not in "iu"
                       or not isinstance(handles, (np.ndarray, np.integer, int))):
        for h in np.ravel(np.asarray(handles, dtype=object)):
            if isinstance(h, bool) or not isinstance(h, (int, np.integer)):
                raise error(f"{kind} handle is not an integer: {h!r}")
            if not -_INT64_MAX - 1 <= h <= _INT64_MAX:
                raise error(f"{kind} handle out of range: {h}")
    handles = given.astype(np.int64, copy=False)
    # as unsigned, a negative handle is out of range too
    if handles.size and handles.view(np.uint64).max() >= count:
        at = np.argmax(handles.ravel().view(np.uint64) >= count)
        raise error(f"{kind} handle out of range: {given.ravel()[at]}")
    return handles


def _int64_or_minus_one(handles) -> np.ndarray:
    """``handles``, one or an array of them, as int64, with -1 for each
    beyond int64."""
    try:
        return np.asarray(handles, dtype=np.int64)
    except OverflowError:
        handles = np.asarray(handles, dtype=object)
        fits = (handles >= -_INT64_MAX - 1) & (handles <= _INT64_MAX)
        return np.where(fits, handles, -1).astype(np.int64)


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


def search_keys(keys: np.ndarray, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, found) of each wanted key in the ascending array ``keys``: where
    ``found[n]``, ``keys[at[n]] == want[n]``."""
    if keys.size == 0:
        return np.zeros(np.shape(want), dtype=np.int64), np.zeros(np.shape(want), dtype=bool)
    # searching all but the last key gives an index in range, the last for a key above
    at = np.searchsorted(keys[:-1], want)
    return at, keys[at] == want


def bit_of(handles: np.ndarray) -> np.ndarray:
    """Each handle's bit within its uint64 word of a bitset, word ``handle >> 6``."""
    return np.left_shift(np.uint64(1), (handles & 63).astype(np.uint64))


def packed_csr(keys: np.ndarray, num_rows: int, num_cols: int) -> tuple[np.ndarray, ...]:
    """Frozen (keys, ptr, cols) of packed ``row * num_cols + col`` keys, each once:
    keys ascend, and so do row r's ``cols[ptr[r]:ptr[r + 1]]``.  Not np.unique or
    np.sort: their first calls load code that raises the peak RSS of a whole run."""
    keys = keys[np.argsort(keys, kind="stable")]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    rows = keys // max(num_cols, 1)
    ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=num_rows))))
    return _frozen(keys), _frozen(ptr), _frozen(keys - rows * num_cols)


class Interner:
    """Bijection, fixed at construction, between external string ids, given
    strictly ascending (``ValueError`` otherwise), and their ranks, the
    dense integer handles.

    ``ids`` holds them as a frozen object array: a column of handles
    becomes its ids with one take, and an id's handle is found by
    bisection.  An interner holds the ids of one kind without knowing
    which, so :meth:`external` raises ``IndexError`` for a handle outside
    ``[0, len)``, -1 included, as a sequence does.
    """

    __slots__ = ("ids",)

    def __init__(self, ids: Iterable[str] = ()):
        ids = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
        self.ids = _frozen(np.array(ids, dtype=object).reshape(len(ids)))
        if not (self.ids[1:] > self.ids[:-1]).all():
            raise ValueError("external ids must be strictly ascending")

    def handle(self, external_id: str) -> int:
        """Handle for a known id; KeyError if never interned."""
        at = bisect_left(self.ids, external_id)
        if at == len(self.ids) or self.ids[at] != external_id:
            raise KeyError(external_id)
        return at

    def external(self, handle: int) -> str:
        check_handles(handle, len(self.ids), "interned", IndexError)
        return self.ids[handle]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, external_id: str) -> bool:
        at = bisect_left(self.ids, external_id)
        return at < len(self.ids) and self.ids[at] == external_id

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids.tolist())


def factorize(*columns: Iterable[str]) -> tuple[Interner, list[np.ndarray]]:
    """An interner of the columns' distinct ids, and each column's handles in
    it.  This is the one place where ids are looked up row by row."""
    columns = [c.tolist() if isinstance(c, np.ndarray)
               else c if isinstance(c, (list, tuple)) else list(c) for c in columns]
    ids = sorted(set().union(*columns))
    index = dict(zip(ids, range(len(ids))))
    return Interner(ids), [np.fromiter(map(index.__getitem__, c), np.int64, len(c))
                           for c in columns]


def _user_means(users: np.ndarray, values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each user's ``values``, added in the order given; NaN for a
    user whose count is 0."""
    sums = np.bincount(users, weights=values, minlength=counts.size)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


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
        "_keys",
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
        # copies: the store freezes its arrays, and the caller keeps theirs
        users = np.array(check_handles(users, num_users, "user", ValueError))
        items = np.array(check_handles(items, num_items, "item", ValueError))
        values = np.array(values, dtype=np.float64)
        if not (users.shape == items.shape == values.shape) or users.ndim != 1:
            raise ValueError("ratings arrays must be 1-d and aligned")
        # NaN fails both comparisons
        if values.size and not (values.min() >= RATING_MIN and values.max() <= RATING_MAX):
            raise ValueError(f"ratings must lie in [{RATING_MIN}, {RATING_MAX}]")

        keys = users * num_items + items
        if not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            users, items, values, keys = users[order], items[order], values[order], keys[order]
            if (keys[1:] == keys[:-1]).any():
                raise ValueError("duplicate (user, item) rating pair")
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.user_idx = _frozen(users)
        self.item_idx = _frozen(items)
        self.value = _frozen(values)
        self._keys = _frozen(keys)

        counts = np.bincount(users, minlength=num_users)
        self._u_ptr = _frozen(np.concatenate(([0], np.cumsum(counts))))
        # stable, so users ascend within an item as in the canonical order
        self._i_order = _frozen(np.argsort(items, kind="stable"))
        icounts = np.bincount(items, minlength=num_items)
        self._i_ptr = _frozen(np.concatenate(([0], np.cumsum(icounts))))

        self._user_mean = _frozen(_user_means(users, values, counts))

    def __len__(self) -> int:
        return int(self.user_idx.size)

    def items_of(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(items, values) rated by user u, items ascending."""
        check_handles(u, self.num_users, "user", UnknownUser)
        lo, hi = self._u_ptr[u], self._u_ptr[u + 1]
        return self.item_idx[lo:hi], self.value[lo:hi]

    def raters_of(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(users, values, canonical positions) for item i, users ascending."""
        check_handles(i, self.num_items, "item", IndexError)
        lo, hi = self._i_ptr[i], self._i_ptr[i + 1]
        pos = self._i_order[lo:hi]
        return self.user_idx[pos], self.value[pos], pos

    def items_of_many(
        self, users: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(user_at, items, canonical positions) of several users' rows, concatenated.

        Entry n belongs to ``users[user_at[n]]``; items ascend within a row.
        """
        users = check_handles(users, self.num_users, "user", UnknownUser)
        user_at, flat = csr_rows(self._u_ptr, users)
        return user_at, self.item_idx[flat], flat

    def ratings_of_items(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(item_at, canonical positions) of several items' ratings, concatenated.

        Entry n rates ``items[item_at[n]]``; raters ascend within an item.
        A caller reads only the columns it needs at the positions it keeps.
        """
        items = check_handles(items, self.num_items, "item", IndexError)
        item_at, flat = csr_rows(self._i_ptr, items)
        return item_at, self._i_order[flat]

    def positions(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Canonical position of the rating ``users[n]`` gave ``items[n]``, or
        -1, as for a handle out of range (one beyond int64 included)."""
        users, items = _int64_or_minus_one(users), _int64_or_minus_one(items)
        want = users * self.num_items + items
        # an item out of range would pack to a neighbouring user's key, and a
        # user far out of range wrap to any key; as unsigned, -1 is out of range
        want[(users.view(np.uint64) >= self.num_users)
             | (items.view(np.uint64) >= self.num_items)] = -1
        at, found = search_keys(self._keys, want)
        at[~found] = -1
        return at

    def rating_count_of(self, u: int) -> int:
        check_handles(u, self.num_users, "user", UnknownUser)
        return int(self._u_ptr[u + 1] - self._u_ptr[u])

    def user_rating_counts(self) -> np.ndarray:
        return np.diff(self._u_ptr)

    def item_rating_counts(self) -> np.ndarray:
        return np.diff(self._i_ptr)

    def mean_of(self, u: int) -> float:
        """Mean of u's ratings; NaN when u has none."""
        check_handles(u, self.num_users, "user", UnknownUser)
        return float(self._user_mean[u])

    def user_means(self) -> np.ndarray:
        return self._user_mean

    def held_out_means(self, labels: np.ndarray, num_labels: int) -> np.ndarray:
        """(label, user) table of training means: row f is each user's mean
        over the ratings not labelled f, or NaN for a user with none.

        ``labels`` holds one label per canonical rating; one outside
        ``[0, num_labels)`` is never held out.  Row f equals the
        ``user_means()`` of a store built from the ratings not labelled f,
        bit for bit: each row is one bincount pass over the kept ratings
        in canonical order.
        """
        out = np.empty((num_labels, self.num_users))
        for f in range(num_labels):
            keep = labels != f
            users = self.user_idx[keep]
            counts = np.bincount(users, minlength=self.num_users)
            out[f] = _user_means(users, self.value[keep], counts)
        return out

    def triples(self) -> Iterator[tuple[int, int, float]]:
        for u, i, v in zip(self.user_idx, self.item_idx, self.value):
            yield int(u), int(i), float(v)


class _CounterColumns:
    """Named non-negative counters, one entry per row; absent ones read 0.  A
    subclass sets the names allowed (``NAMES``) and its errors' wording."""

    __slots__ = ("_size", "_cols")

    def __init__(self, size: int, columns: Mapping[str, np.ndarray] | None):
        self._size = size
        self._cols: dict[str, np.ndarray] = {}
        for name, values in (columns or {}).items():
            self._check(name)
            arr = np.asarray(values, dtype=np.int64)
            if arr.shape != (size,):
                raise ValueError(f"{self.LABEL} {name!r} {self.SHAPE}")
            if arr.size and arr.min() < 0:
                raise ValueError(f"{self.LABEL} {name!r} must be non-negative")
            self._cols[name] = _frozen(arr.copy())

    def _check(self, name: str) -> None:
        if name not in self.NAMES:
            raise ValueError(f"unknown {self.KIND} {name!r}")

    def col(self, name: str) -> np.ndarray:
        self._check(name)
        got = self._cols.get(name)
        if got is None:
            got = self._cols[name] = _frozen(np.zeros(self._size, dtype=np.int64))
        return got

    def present(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, c in self._cols.items() if c.any()))

    def total(self, names: Sequence[str]) -> np.ndarray:
        """The counters ``names`` added up, per entry."""
        present = (col for name, col in self._cols.items() if name in names)
        return sum(present, np.zeros(self._size, dtype=np.int64))


class FeedbackTable(_CounterColumns):
    """Per-user non-negative counters; columns absent from the table read 0."""

    __slots__ = ("num_users",)
    NAMES, KIND, LABEL = USER_COUNTERS, "user counter", "counter"
    SHAPE = "must have one entry per user"

    def __init__(self, num_users: int, columns: Mapping[str, np.ndarray] | None = None):
        self.num_users = int(num_users)
        super().__init__(self.num_users, columns)


class ReviewFeedback(_CounterColumns):
    """Per-review counters aligned with a RatingStore's canonical order.

    Entries exist exactly for (user, item) pairs that carry a rating; a
    review with no recorded feedback holds zeros.
    """

    __slots__ = ("store", "_totals")
    NAMES, KIND = REVIEW_COUNTERS, "review counter"
    LABEL, SHAPE = KIND, "must align with the ratings"

    def __init__(self, store: RatingStore, columns: Mapping[str, np.ndarray] | None = None):
        self.store = store
        super().__init__(len(store), columns)

        self._totals = _frozen(self.total(REVIEW_COUNTERS))

    def totals(self) -> np.ndarray:
        return self._totals

    def total_of(self, u: int, i: int) -> int:
        check_handles(u, self.store.num_users, "user", UnknownUser)
        check_handles(i, self.store.num_items, "item", IndexError)
        at = self.store.positions(np.array([u]), np.array([i]))[0]
        return int(self._totals[at]) if at >= 0 else 0


class ItemCategories:
    """Category tags of each item handle, CSR by item; an item may have none.

    A tag's id is its index in ``names``, the distinct tags sorted.  Row
    i, ``tags[ptr[i]:ptr[i + 1]]``, holds item i's ``sizes[i]`` tag ids
    ascending.  ``bits[i]`` holds the same tags as bits of uint64 words,
    tag t at bit ``t & 63`` of word ``t >> 6``: ⌈tags / 64⌉ words per
    item, 8 bytes per item at up to 64 tags.  Two items' shared tags are
    the set bits of their rows' AND, as friend sets are intersected in
    :func:`~trustcf.social.jaccard_many`.
    """

    __slots__ = ("names", "sizes", "ptr", "tags", "bits")

    def __init__(self, num_items: int, tags: Mapping[int, Iterable[str]] | None = None):
        tags = tags or {}
        check_handles(list(tags), num_items, "item", ValueError)
        items, names = _columns(((i, str(c)) for i, cats in tags.items() for c in cats), 2)
        names, (tag_ids,) = factorize(names)
        self._index(num_items, items, names, tag_ids)

    @classmethod
    def from_columns(
        cls, num_items: int, items: np.ndarray, names: Interner, tag_ids: np.ndarray
    ) -> ItemCategories:
        """Item ``items[n]`` carries tag ``names.ids[tag_ids[n]]``, for each n;
        repeats count once.  Every tag of ``names`` is kept, carried or not."""
        out = cls.__new__(cls)
        out._index(num_items, items, names, tag_ids)
        return out

    def _index(self, num_items: int, items, names: Interner, tag_ids) -> None:
        items = check_handles(items, num_items, "item", ValueError)
        tag_ids = check_handles(tag_ids, len(names), "tag", ValueError)
        if items.shape != tag_ids.shape:
            raise ValueError(f"categories: {tag_ids.size} tag handles "
                             f"for {items.size} item handles")
        self.names = tuple(names)
        _, self.ptr, self.tags = packed_csr(items * len(self.names) + tag_ids,
                                            num_items, len(self.names))
        self.sizes = _frozen(np.diff(self.ptr))
        words = (len(self.names) + 63) >> 6
        bits = np.zeros((num_items, words), dtype=np.uint64)
        # the (item, tag) pairs are distinct, so adding a tag's bit sets it
        np.add.at(bits.reshape(-1), np.repeat(np.arange(num_items) * words, self.sizes)
                  + (self.tags >> 6), bit_of(self.tags))
        self.bits = _frozen(bits)

    def of(self, i: int) -> frozenset[str]:
        check_handles(i, len(self), "item", IndexError)
        row = self.tags[self.ptr[i]:self.ptr[i + 1]]
        return frozenset(map(self.names.__getitem__, row.tolist()))

    def shared(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Number of tags items ``a[n]`` and ``b[n]`` have in common, for each
        n, as int64: the set bits of their rows' AND."""
        a = check_handles(a, len(self), "item", IndexError)
        b = check_handles(b, len(self), "item", IndexError)
        return np.bitwise_count(self.bits[a] & self.bits[b]).sum(axis=1, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.sizes.size)


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
        for part, kind, held in (("rating store", "user", self.ratings.num_users),
                                 ("social graph", "user", self.social.num_users),
                                 ("feedback table", "user", self.feedback.num_users),
                                 ("rating store", "item", self.ratings.num_items),
                                 ("category table", "item", len(self.categories))):
            ids = len(self.users if kind == "user" else self.items)
            if held != ids:
                raise ValueError(f"{ids} {kind} ids, but the {part} holds {held} {kind}s")
        if self.review_feedback.store is not self.ratings:
            raise ValueError("the review feedback is not aligned with the dataset's rating store")

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_items(self) -> int:
        return len(self.items)


def build_dataset(
    *,
    provenance: str,
    users: Interner,
    items: Interner,
    ratings: tuple[np.ndarray, np.ndarray, Sequence[float]],
    friends: tuple[np.ndarray, np.ndarray] = ((), ()),
    user_counters: Sequence[tuple[np.ndarray, Mapping[str, Sequence[int]]]] = (),
    review_counters: Sequence[tuple[np.ndarray, np.ndarray, Mapping[str, Sequence[int]]]] = (),
    categories: tuple[np.ndarray, Interner, np.ndarray] = ((), Interner(), ()),
    warnings: IngestWarnings = IngestWarnings(),
) -> Dataset:
    """Build a Dataset from columns of handles into ``users`` and ``items``.

    Every id of each interner becomes a handle, whether a row refers to it
    or not.  ``ratings`` is (user, item, value) columns with one row per
    pair, ``friends`` (user, user) columns and ``categories`` (item
    handles, an interner of tags, tag handles).  Counters come in tables:
    ``(users, {name: values})`` per user table, ``(users, items, {name:
    values})`` per review table.  Rows that repeat a key add up, also
    across tables, and review rows must refer to pairs that carry a
    rating.  A handle outside its interner raises ``ValueError`` (see
    :func:`check_handles`).  Each review table is joined to the ratings by
    one :meth:`RatingStore.positions` call.
    """
    from .social import SocialGraph

    nu, ni = len(users), len(items)
    store = RatingStore(nu, ni, *ratings)
    a, b = (check_handles(h, nu, "user", ValueError) for h in friends)
    user_sums = []
    for t, (u, counters) in enumerate(user_counters):
        u = check_handles(u, nu, "user", ValueError)
        _check_rows(f"user counter table {t}", u, counters)
        user_sums.append((u, counters))

    review_sums = []
    for t, (u, i, counters) in enumerate(review_counters):
        u = check_handles(u, nu, "user", ValueError)
        i = check_handles(i, ni, "item", ValueError)
        if u.shape != i.shape:
            raise ValueError(f"review counter table {t}: {u.size} user handles "
                             f"for {i.size} item handles")
        _check_rows(f"review counter table {t}", u, counters)
        pos = store.positions(u, i)
        if pos.size and pos.min() < 0:
            n = int(np.argmin(pos))
            raise ValueError(f"review counters for unrated pair "
                             f"({users.ids[u[n]]!r}, {items.ids[i[n]]!r})")
        review_sums.append((pos, counters))

    return Dataset(
        users=users,
        items=items,
        ratings=store,
        social=SocialGraph(nu, np.column_stack((a, b))),
        feedback=FeedbackTable(
            nu, _sums(user_sums, nu, (COMPLIMENTS, CONTRIBUTIONS, RECEIVED_FEEDBACK))
        ),
        review_feedback=ReviewFeedback(store, _sums(review_sums, len(store), (REVIEW_COUNTERS,))),
        categories=ItemCategories.from_columns(ni, *categories),
        provenance=provenance,
        warnings=warnings,
    )


def _check_rows(table: str, handles: np.ndarray, counters: Mapping[str, Sequence[int]]) -> None:
    """Raise ValueError naming the table when a counter's values are not one per
    row of its handle column, as numpy would broadcast a single value."""
    for name, values in counters.items():
        if len(values) != handles.size:
            raise ValueError(f"{table}: counter {name!r} has {len(values)} values "
                             f"for {handles.size} rows")


def _sums(
    tables: Sequence[tuple[np.ndarray, Mapping]], size: int, groups: Sequence[tuple[str, ...]]
) -> dict[str, np.ndarray]:
    """Per counter name, each table's ``values[n]`` added up at entry ``at[n]``
    of ``size`` zeros.  Raises CounterOverflow rather than wrap, also where
    the counters of one of ``groups`` add up beyond int64 at an entry."""
    out: dict[str, np.ndarray] = {}
    reach: dict[str, int] = {}  # per name, a bound on the magnitude of any total
    for at, counters in tables:
        for name, values in counters.items():
            try:
                arr = np.asarray(values, dtype=np.int64)
            except OverflowError:  # a value beyond int64, which _overflow raises for
                _overflow(tables, name)
            top = max(-int(arr.min(initial=0)), int(arr.max(initial=0)))
            reach[name] = reach.get(name, 0) + arr.size * top
            if reach[name] > _INT64_MAX:
                _overflow(tables, name)
            np.add.at(out.setdefault(name, np.zeros(size, dtype=np.int64)), at, arr)
    for group in groups:
        # the counters' largest values bound any entry's total
        if sum(int(out[name].max(initial=0)) for name in group if name in out) > _INT64_MAX:
            _overflow(tables, *group)
    return out


def _overflow(tables: Sequence[tuple[np.ndarray, Mapping]], *names: str) -> None:
    """Raise CounterOverflow when a value, or the total of the counters ``names``
    at an entry, goes beyond int64; return if none does.  It names the largest
    value the entry has taken by then, the last of equals: that row's own
    value, or the outlier among the rows of a sum."""
    totals: dict[int, int] = {}
    largest: dict[int, tuple[int, str, int, int]] = {}  # per entry: (|value|, name, table, row)
    for table, (at, counters) in enumerate(tables):
        cols = [(name, counters[name]) for name in names if name in counters]
        for row, a in enumerate(at.tolist()):
            for name, values in cols:
                v = int(values[row])
                totals[a] = total = totals.get(a, 0) + v
                if abs(v) >= largest.get(a, (0,))[0]:
                    largest[a] = (abs(v), name, table, row)
                if max(abs(v), abs(total)) > _INT64_MAX:
                    raise CounterOverflow(*largest[a][1:], names)


def _columns(rows: Iterable[tuple], width: int) -> tuple:
    """Rows of ``width`` fields as ``width`` columns."""
    return tuple(zip(*rows)) or ((),) * width


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
    produce handle-identical datasets; ``extra_users`` and ``extra_items``
    name ids that no row need refer to.  Review counters must refer to
    pairs that actually carry a rating.  See :func:`build_dataset`.
    """
    categories = categories or {}
    r_user, r_item, values = _columns(ratings, 3)
    c_item, c_tag = _columns(((i, str(t)) for i, tags in categories.items() for t in tags), 2)
    user_tables = [(list(m), {name: list(m.values())})
                   for name, m in (user_counters or {}).items()]
    review_tables = [([u for u, _ in m], [i for _, i in m], {name: list(m.values())})
                     for name, m in (review_counters or {}).items()]
    users, (r_uh, a, b, _, *uh) = factorize(
        r_user, *_columns(friends, 2), extra_users, *(ids for ids, _ in user_tables),
        *(ids for ids, _, _ in review_tables))
    items, (r_ih, c_ih, _, *ih) = factorize(
        r_item, c_item, chain(extra_items, categories), *(ids for _, ids, _ in review_tables))
    tags, (c_th,) = factorize(c_tag)
    return build_dataset(
        provenance=provenance,
        users=users,
        items=items,
        ratings=(r_uh, r_ih, values),
        friends=(a, b),
        user_counters=[(h, counters) for h, (_, counters) in zip(uh, user_tables)],
        review_counters=[(u, i, counters) for u, i, (_, _, counters)
                         in zip(uh[len(user_tables):], ih, review_tables)],
        categories=(c_ih, tags, c_th),
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
    least ``min_ratings`` of them.  A kept item stays even when none of
    its ratings does, and a tag that no kept item carries is dropped.
    Handles are ranks of ascending ids, so the kept ids ascend too: they
    go to :func:`build_dataset` as interners, and each kept handle becomes
    its rank among the kept ones (``np.cumsum(keep) - 1``), so no id is
    looked up again.  The operation is idempotent for fixed arguments.
    """
    if min_ratings < 0:
        raise ValueError("min_ratings must be non-negative")

    cats = d.categories
    owners = np.repeat(np.arange(d.num_items), cats.sizes)  # the item of each tag
    if category_closure is not None:
        closure = frozenset(str(c) for c in category_closure)
        in_closure = np.array([name in closure for name in cats.names], dtype=bool)
        item_keep = np.bincount(owners, in_closure[cats.tags], minlength=d.num_items) > 0
    else:
        item_keep = np.ones(d.num_items, dtype=bool)

    store = d.ratings
    rating_keep = item_keep[store.item_idx]
    user_keep = np.bincount(store.user_idx[rating_keep], minlength=d.num_users) >= min_ratings

    keep = rating_keep & user_keep[store.user_idx]
    user_rank, item_rank = np.cumsum(user_keep) - 1, np.cumsum(item_keep) - 1
    r_user, r_item = user_rank[store.user_idx[keep]], item_rank[store.item_idx[keep]]
    a, b = d.social.edge_array()
    friends = user_keep[a] & user_keep[b]
    tagged = item_keep[owners]
    tag_keep = np.zeros(len(cats.names), dtype=bool)
    tag_keep[cats.tags[tagged]] = True
    fb, rf = d.feedback, d.review_feedback
    return build_dataset(
        provenance=d.provenance,
        users=Interner(d.users.ids[user_keep]),
        items=Interner(d.items.ids[item_keep]),
        ratings=(r_user, r_item, store.value[keep]),
        friends=(user_rank[a[friends]], user_rank[b[friends]]),
        user_counters=[(np.arange(np.count_nonzero(user_keep)),
                        {name: fb.col(name)[user_keep] for name in fb.present()})],
        review_counters=[(r_user, r_item, {name: rf.col(name)[keep] for name in rf.present()})],
        categories=(item_rank[owners[tagged]], Interner(compress(cats.names, tag_keep)),
                    (np.cumsum(tag_keep) - 1)[cats.tags[tagged]]),
    )


@dataclass(frozen=True)
class StatRow:
    name: str
    min: float
    max: float
    mean: float
    median: float
    mode: float


def _shown(value: float, spec: str) -> str:
    """``value`` formatted by ``spec``, or ``-`` when it is undefined (NaN)."""
    return "-" if isnan(value) else format(value, spec)


@dataclass(frozen=True)
class StatsReport:
    """What :func:`compute_stats` reports.  A value the dataset does not
    define, such as a sparsity of a dataset with no user or any statistic
    of an empty distribution, is NaN, and :meth:`to_text` prints it as ``-``."""

    provenance: str
    num_users: int
    num_items: int
    num_ratings: int
    num_friend_relations: int
    rating_sparsity: float
    friend_sparsity: float
    rows: tuple[StatRow, ...]

    def to_text(self) -> str:
        out = [
            f"provenance: {self.provenance}",
            f"users: {self.num_users}",
            f"items: {self.num_items}",
            f"ratings: {self.num_ratings}",
            f"friend relations: {self.num_friend_relations}",
            f"rating matrix sparsity: {_shown(self.rating_sparsity, '.4f')}",
            f"friend matrix sparsity: {_shown(self.friend_sparsity, '.4f')}",
            "",
            f"{'distribution':<48}{'min':>8}{'max':>8}{'mean':>12}{'median':>9}{'mode':>7}",
        ]
        for r in self.rows:
            out.append(
                f"{r.name:<48}{_shown(r.min, 'g'):>8}{_shown(r.max, 'g'):>8}"
                f"{_shown(r.mean, '.4f'):>12}{_shown(r.median, 'g'):>9}{_shown(r.mode, 'g'):>7}"
            )
        return "\n".join(out)


def _stat_row(name: str, values: np.ndarray) -> StatRow:
    values = np.asarray(values)
    if values.size == 0:
        return StatRow(name, *[float("nan")] * 5)
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

    An empty distribution gives a row of NaNs, and a sparsity with an empty
    matrix (no user, or no item) is NaN.

    Friend relations are counted as ordered pairs (each undirected edge
    contributes two), which is also the convention behind the friend
    matrix sparsity and the per-user friend-count mean.
    """
    degrees = d.social.degree_array()
    relations = int(degrees.sum())
    nu, ni, nr = d.num_users, d.num_items, len(d.ratings)
    rating_sparsity = 1.0 - nr / (nu * ni) if nu and ni else float("nan")
    friend_sparsity = 1.0 - relations / (nu * nu) if nu else float("nan")

    per_review = d.review_feedback.totals()
    per_user_review_fb = np.bincount(d.ratings.user_idx, weights=per_review, minlength=nu)

    rows: list[StatRow] = []
    if d.provenance in ("yelp", "synthetic"):
        fb = d.feedback
        compliments = fb.total(COMPLIMENTS)
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
