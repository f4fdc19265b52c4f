"""Canonical on-disk dataset format.

A dataset directory holds five TSV files plus a manifest:

    manifest.txt           schema_version=1 / provenance=<tag> / counts
    ratings.tsv            user <TAB> item <TAB> rating
    friends.tsv            user <TAB> user     (smaller external id first)
    user_feedback.tsv      user <TAB> counter <TAB> value
    review_feedback.tsv    user <TAB> item <TAB> counter <TAB> value
    item_categories.tsv    item <TAB> category

Rows are sorted by their external ids, zero counters are omitted, and
floats print in shortest form, so serialization is deterministic: equal
datasets produce byte-identical directories.  Every user appears at
least once in user_feedback.tsv (the review_count row is always written)
and every item at least once in item_categories.tsv (untagged items get
a bare line), which makes the round trip lossless even for entities that
carry no other data.
"""

from __future__ import annotations

import os
import secrets
from itertools import compress, count, repeat
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .dataset import PROVENANCES, RATING_MAX, RATING_MIN, REVIEW_COUNTERS, USER_COUNTERS
from .dataset import _INT64_MAX, CounterOverflow, Dataset, build_dataset, factorize
from .dataset import make_dataset  # noqa: F401  (perfbench/spans.py traces this name)
from .errors import IoFailure, MalformedRecord, SchemaVersionMismatch

SCHEMA_VERSION = "1"

_MANIFEST_KEYS = ("schema_version", "provenance", "num_users", "num_items", "num_ratings")

_FILES = (
    "ratings.tsv",
    "friends.tsv",
    "user_feedback.tsv",
    "review_feedback.tsv",
    "item_categories.tsv",
)


def unsafe_field(text: str) -> bool:
    """Whether an id or tag cannot be one canonical TSV field: it holds a
    tab or a line break."""
    return "\t" in text or "\n" in text or "\r" in text


def undecodable(path: Path) -> MalformedRecord:
    """The error for a file that is not UTF-8 text, naming the first line that
    is not, with lines counted as reading the file as text counts them."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return MalformedRecord(path.name, line_no, "not UTF-8 text")
    return MalformedRecord(path.name, 0, "not UTF-8 text")  # the file changed in between


def _text(lines) -> str:
    """Lines sorted as strings, each ended by a newline."""
    lines = sorted(lines)
    return "\n".join(lines) + "\n" if lines else ""


def render_canonical(d: Dataset) -> dict[str, str]:
    """Canonical file contents, keyed by file name."""
    users = d.users
    items = d.items
    store = d.ratings

    ratings = _text(map(
        "{}\t{}\t{}".format,
        users.externals(store.user_idx),
        items.externals(store.item_idx),
        # shortest text that reads back as the same float, "4" for 4.0
        map(str.removesuffix, map(repr, store.value.tolist()), repeat(".0")),
    ))

    # handle order is id order: the smaller handle of an edge has the smaller id
    friends = _text(map("{}\t{}".format, *map(users.externals, d.social.edge_array())))

    # every user gets a review_count row, zero or not
    names = sorted(set(d.feedback.present()) | {"review_count"})
    table = np.stack([d.feedback.col(name) for name in names], axis=1)
    shown = table != 0
    shown[:, names.index("review_count")] = True
    row, col = np.nonzero(shown)
    user_feedback = "".join(map(
        "{}\t{}\t{}\n".format,
        users.externals(row),
        map(names.__getitem__, col.tolist()),
        table[row, col].tolist(),
    ))

    rf_lines: list[str] = []
    for name in d.review_feedback.present():
        counts = d.review_feedback.col(name)
        pos = np.flatnonzero(counts)
        rf_lines += map(
            "{}\t{}\t{}\t{}".format,
            users.externals(store.user_idx[pos]),
            items.externals(store.item_idx[pos]),
            repeat(name),
            counts[pos].tolist(),
        )
    review_feedback = _text(rf_lines)

    # items by external id, each tag by name; an untagged item gets a bare line
    cats = d.categories
    tags = list(map(cats.names.__getitem__, cats.tags.tolist()))
    ptr = cats.ptr.tolist()
    item_categories = "".join(
        "".join(f"{ext}\t{tag}\n" for tag in tags[ptr[i]:ptr[i + 1]]) or f"{ext}\t\n"
        for i, ext in enumerate(items)
    )

    manifest = (
        f"schema_version={SCHEMA_VERSION}\n"
        f"provenance={d.provenance}\n"
        f"num_users={d.num_users}\n"
        f"num_items={d.num_items}\n"
        f"num_ratings={len(d.ratings)}\n"
    )
    return {
        "manifest.txt": manifest,
        "ratings.tsv": ratings,
        "friends.tsv": friends,
        "user_feedback.tsv": user_feedback,
        "review_feedback.tsv": review_feedback,
        "item_categories.tsv": item_categories,
    }


def write_atomic(directory: Path, files: Mapping[str, str]) -> None:
    """Write each file beside its target and rename it into place.

    A reader sees every file either whole and old or whole and new.
    Raises OSError.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        tmp = directory / f".{name}.{secrets.token_hex(6)}.tmp"
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                handle.write(content)
            os.replace(tmp, directory / name)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def canonical_save(d: Dataset, directory: str | Path) -> None:
    """Write a dataset as a canonical directory (creating it if needed).

    The old manifest is removed first and the new one written last, and
    each data file is renamed into place whole: a save interrupted over
    an older directory leaves one that fails to load for its missing
    manifest, never a mix of old and new files that loads.  An id or tag
    that is not one TSV field (see :func:`unsafe_field`), or an empty tag
    (it would reload as untagged), raises IoFailure before any write.
    """
    for what, names in (("user id", d.users), ("item id", d.items), ("tag", d.categories.names)):
        bad = next(filter(unsafe_field, names), None)
        if bad is not None:
            raise IoFailure(f"cannot save {what} {bad!r}: it holds a tab or line break")
    if "" in d.categories.names:
        raise IoFailure("cannot save tag '': it would read back as an untagged item")
    directory = Path(directory)
    files = render_canonical(d)
    manifest = files.pop("manifest.txt")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "manifest.txt").unlink(missing_ok=True)
        write_atomic(directory, files)
        write_atomic(directory, {"manifest.txt": manifest})
    except OSError as exc:
        raise IoFailure(f"could not write canonical dataset: {exc}") from None


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise undecodable(path) from None


def _read_manifest(directory: Path) -> dict[str, tuple[str, str]]:
    """Each manifest key's ``file:line`` and value."""
    path = directory / "manifest.txt"
    if not path.is_file():
        raise IoFailure(f"missing manifest: {path}")
    fields = {}
    for line_no, line in enumerate(_read(path).split("\n"), start=1):
        if not line.strip():
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        where = f"{path.name}:{line_no}"
        if not eq or key not in _MANIFEST_KEYS:
            raise IoFailure(f"{where}: malformed manifest line {line!r}")
        if key in fields:
            raise IoFailure(f"{where}: repeated key {key!r}")
        if key == "schema_version" and value != SCHEMA_VERSION:
            raise SchemaVersionMismatch(f"{where}: schema version {value!r}, not {SCHEMA_VERSION}")
        if key == "provenance" and value not in PROVENANCES:
            raise IoFailure(f"{where}: unknown provenance {value!r}")
        fields[key] = where, value
    for key in _MANIFEST_KEYS:
        if key not in fields:
            raise IoFailure(f"{path.name}: no {key} line")
    return fields


def _columns(path: Path, width: int) -> list[list[str]]:
    """The ``width`` tab-separated columns of a file's non-blank lines."""
    lines = _read(path).split("\n")
    rows = list(filter(None, lines))
    tabs = list(map(str.count, rows, repeat("\t")))
    if tabs.count(width - 1) != len(tabs):
        for line_no, line in enumerate(lines, start=1):
            got = line.count("\t") + 1
            if line and got != width:
                raise IoFailure(f"{path.name}:{line_no}: expected {width} fields, got {got}")
    # the lines go before the fields come, to keep the peak memory low
    joined = "\t".join(rows)
    del lines, rows
    fields = joined.split("\t") if joined else []
    del joined
    return [fields[k::width] for k in range(width)]


class _Counters(NamedTuple):
    """The rows of a counter file: ids, counter name and value per row.

    ``names`` holds the distinct counter names, sorted, and ``codes`` each
    row's index among them.
    """

    path: Path
    ids: list[list[str]]
    names: list[str]
    codes: np.ndarray
    values: np.ndarray

    def table(self, *handles: np.ndarray) -> tuple:
        """The counter table ``(*handles, {name: values})`` over the id
        columns' handles, each name's values zero on the other names' rows."""
        return (*handles, {n: np.where(self.codes == k, self.values, 0)
                           for k, n in enumerate(self.names)})

    def check_repeats(self, loaded, *columns: tuple[int, np.ndarray]) -> None:
        """Raise IoFailure naming the first line that repeats an earlier line's key.

        ``loaded(name)`` is the counter as built, rows of one key added up;
        ``columns`` are the id columns, each as (interner size, handles).
        With as many nonzero entries as rows there is no repeat, and the
        sort of every row's key is skipped.
        """
        if self.values.size == sum(np.count_nonzero(loaded(name)) for name in self.names):
            return
        keys = self.codes
        for size, handles in columns:
            keys = keys * size + handles
        keys = keys[np.argsort(keys, kind="stable")]
        if (keys[1:] == keys[:-1]).any():
            raise _bad_line(self.path, _repeats(), "repeated key")


def _read_counters(path: Path, width: int, known: tuple[str, ...]) -> _Counters:
    *ids, names, raw = _columns(path, width)
    values = _parsed(path, raw, int, 0, _INT64_MAX, "count")
    present, (codes,) = factorize(names)  # its ids are sorted
    if not set(present).issubset(known):
        raise _bad_line(path, lambda f: None if f[-2] in known else f[-2], "unknown counter")
    return _Counters(path, ids, list(present), codes, values)


def _parsed(path: Path, raw: list[str], kind: type, lo, hi, what: str) -> np.ndarray:
    """``raw`` as ``kind`` values in [lo, hi]; IoFailure naming the first bad line."""

    def bad(fields: list[str]) -> str | None:
        try:
            return None if lo <= kind(fields[-1]) <= hi else fields[-1]  # NaN fails
        except ValueError:
            return fields[-1]

    dtype = np.float64 if kind is float else np.int64
    try:
        values = np.fromiter(map(kind, raw), dtype=dtype, count=len(raw))
    except (ValueError, OverflowError):
        raise _bad_line(path, bad, f"bad {what}") from None
    if values.size and not (values.min() >= lo and values.max() <= hi):
        raise _bad_line(path, bad, f"bad {what}")
    return values


def _bad_line(path: Path, bad, what: str) -> IoFailure:
    """The error naming the first non-blank line for which ``bad(fields)`` returns
    what to show (None for a good line).  The file is read again, so that
    loading a good file pays nothing for line numbers."""
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            fields = line.rstrip("\n").split("\t")
            shown = bad(fields) if fields != [""] else None
            if shown is not None:
                return IoFailure(f"{path.name}:{line_no}: {what} {shown!r}")
    return IoFailure(f"{path.name}: {what}")  # the file changed in between


def _repeats():
    """A ``bad`` for :func:`_bad_line`: the key of a line, all fields but the
    last, if an earlier line has it (``set.add`` returns None)."""
    seen = set()
    return lambda f: tuple(f[:-1]) if tuple(f[:-1]) in seen else seen.add(tuple(f[:-1]))


def _nth(row: int):
    """A ``bad`` for :func:`_bad_line`: the fields of the ``row``-th
    non-blank line, counted from 0."""
    rows = count()
    return lambda f: tuple(f) if next(rows) == row else None


def canonical_load(directory: str | Path) -> Dataset:
    """Read a canonical directory back into a Dataset."""
    directory = Path(directory)
    if not directory.is_dir():
        raise IoFailure(f"not a canonical dataset directory: {directory}")
    manifest = _read_manifest(directory)
    for name in _FILES:
        if not (directory / name).is_file():
            raise IoFailure(f"missing canonical file: {directory / name}")

    path = directory / "ratings.tsv"
    r_user, r_item, raw = _columns(path, 3)
    values = _parsed(path, raw, float, RATING_MIN, RATING_MAX, "rating value")

    uc = _read_counters(directory / "user_feedback.tsv", 3, USER_COUNTERS)
    rc = _read_counters(directory / "review_feedback.tsv", 4, REVIEW_COUNTERS)

    # a bare line names an item without tags
    cat_items, tags = _columns(directory / "item_categories.tsv", 2)
    has_tags = np.fromiter(map(bool, tags), dtype=bool, count=len(tags))
    # read last: the peak memory is in reading the counter files
    friends = _columns(directory / "friends.tsv", 2)

    # one interner per kind of id, over every file
    users, (rating_user, friend, friend_of, uc_user, rc_user) = factorize(
        r_user, *friends, *uc.ids, rc.ids[0])
    items, (rating_item, rc_item, listed) = factorize(r_item, rc.ids[1], cat_items)
    names, (tag_ids,) = factorize(compress(tags, tags))
    try:
        d = build_dataset(
            provenance=manifest["provenance"][1],
            users=users,
            items=items,
            ratings=(rating_user, rating_item, values),
            friends=(friend, friend_of),
            user_counters=[uc.table(uc_user)],
            review_counters=[rc.table(rc_user, rc_item)],
            categories=(listed[has_tags], names, tag_ids),
        )
    except ValueError as exc:
        # the builder rejects a repeated rating pair and a review of an unrated pair
        rated = set(zip(r_user, r_item))
        if len(rated) < len(r_user):
            raise _bad_line(path, _repeats(), "repeated key") from None
        if not rated.issuperset(zip(*rc.ids)):
            unrated = lambda f: None if tuple(f[:2]) in rated else tuple(f[:2])  # noqa: E731
            raise _bad_line(rc.path, unrated, "review of an unrated pair") from None
        if isinstance(exc, CounterOverflow):
            path = uc.path if exc.name in uc.names else rc.path
            if len(exc.group) > 1:  # each counter's rows fit, but the counters' sum does not
                raise _bad_line(path, _nth(exc.row), str(exc)) from None
            # each row fits, so rows of one key add up
            raise _bad_line(path, _repeats(), "repeated key") from None
        raise IoFailure(f"inconsistent canonical data: {exc}") from None
    uc.check_repeats(d.feedback.col, (d.num_users, uc_user))
    rc.check_repeats(d.review_feedback.col, (d.num_users, rc_user), (d.num_items, rc_item))

    for key, count in zip(_MANIFEST_KEYS[2:], (d.num_users, d.num_items, len(d.ratings))):
        where, recorded = manifest[key]
        if recorded != str(count):
            raise IoFailure(f"{where}: {key} is {recorded!r}, but the files hold {count}")
    return d


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Structural equality over external ids, ignoring handle assignment."""
    return render_canonical(a) == render_canonical(b)
