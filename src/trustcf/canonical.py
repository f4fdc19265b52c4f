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
from itertools import repeat
from pathlib import Path
from typing import Mapping

import numpy as np

# make_dataset stays importable here: perfbench/spans.py traces this name
from .dataset import RATING_MAX, RATING_MIN, Dataset, build_dataset, make_dataset  # noqa: F401
from .errors import IoFailure, SchemaVersionMismatch

SCHEMA_VERSION = "1"

_COUNT_MAX = int(np.iinfo(np.int64).max)

_FILES = (
    "ratings.tsv",
    "friends.tsv",
    "user_feedback.tsv",
    "review_feedback.tsv",
    "item_categories.tsv",
)


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
        map(format, store.value.tolist(), repeat("g")),
    ))

    # users in the order of their external ids
    by_id = np.array(sorted(range(d.num_users), key=users.external), dtype=np.int64)
    rank = np.empty(d.num_users, dtype=np.int64)
    rank[by_id] = np.arange(d.num_users)

    lo, hi = d.social.edge_array()
    swap = rank[hi] < rank[lo]
    friends = _text(map(
        "{}\t{}".format,
        users.externals(np.where(swap, hi, lo)),
        users.externals(np.where(swap, lo, hi)),
    ))

    # every user gets a review_count row, zero or not
    names = sorted(set(d.feedback.present()) | {"review_count"})
    table = np.stack([d.feedback.col(name) for name in names], axis=1)[by_id]
    shown = table != 0
    shown[:, names.index("review_count")] = True
    row, col = np.nonzero(shown)
    user_feedback = "".join(map(
        "{}\t{}\t{}\n".format,
        users.externals(by_id[row]),
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

    cat_lines = []
    for ext in sorted(items):
        tags = d.categories.of(items.handle(ext))
        if tags:
            cat_lines.extend(f"{ext}\t{tag}" for tag in sorted(tags))
        else:
            cat_lines.append(f"{ext}\t")
    item_categories = "".join(line + "\n" for line in cat_lines)

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
    manifest, never a mix of old and new files that loads.
    """
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


def _read_manifest(directory: Path) -> dict[str, str]:
    path = directory / "manifest.txt"
    if not path.is_file():
        raise IoFailure(f"missing manifest: {path}")
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise IoFailure(f"malformed manifest line: {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    return fields


def _columns(path: Path, width: int) -> list[list[str]]:
    """The ``width`` tab-separated columns of a file's non-blank lines."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
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


def _by_name(names: list[str], values: np.ndarray, *ids: list[str]) -> dict[str, tuple]:
    """Counter rows as (*ids, values) per name, values zero on other names' rows.

    Every name shares the id columns, so the builder looks them up once.
    """
    present = sorted(set(names))
    code = dict(zip(present, range(len(present))))
    codes = np.fromiter(map(code.__getitem__, names), dtype=np.int64, count=len(names))
    return {name: (*ids, np.where(codes == k, values, 0)) for k, name in enumerate(present)}


def _parsed(path: Path, raw: list[str], kind: type, lo, hi, what: str) -> np.ndarray:
    """``raw`` as ``kind`` values in [lo, hi]; IoFailure naming the first bad line."""

    def parse(text: str):
        value = kind(text)
        if not lo <= value <= hi:  # NaN fails too
            raise ValueError(text)
        return value

    dtype = np.float64 if kind is float else np.int64
    try:
        values = np.fromiter(map(kind, raw), dtype=dtype, count=len(raw))
    except (ValueError, OverflowError):
        raise _bad_value(path, parse, what) from None
    if values.size and not (values.min() >= lo and values.max() <= hi):
        raise _bad_value(path, parse, what)
    return values


def _bad_value(path: Path, parse, what: str) -> IoFailure:
    """The error for the first non-blank line whose last field ``parse`` rejects.

    Found by reading the file again, so that loading a good file pays
    nothing for the line numbers.
    """
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            raw = line.split("\t")[-1]
            try:
                parse(raw)
            except ValueError:
                return IoFailure(f"{path.name}:{line_no}: bad {what} {raw!r}")
    return IoFailure(f"{path.name}: bad {what}")  # the file changed in between


def canonical_load(directory: str | Path) -> Dataset:
    """Read a canonical directory back into a Dataset."""
    directory = Path(directory)
    if not directory.is_dir():
        raise IoFailure(f"not a canonical dataset directory: {directory}")
    manifest = _read_manifest(directory)
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"schema version {version!r} unsupported (expected {SCHEMA_VERSION})"
        )
    provenance = manifest.get("provenance", "")
    for name in _FILES:
        if not (directory / name).is_file():
            raise IoFailure(f"missing canonical file: {directory / name}")

    path = directory / "ratings.tsv"
    r_user, r_item, raw = _columns(path, 3)
    ratings = (r_user, r_item, _parsed(path, raw, float, RATING_MIN, RATING_MAX, "rating value"))

    path = directory / "user_feedback.tsv"
    uc_user, uc_name, raw = _columns(path, 3)
    user_counters = _by_name(uc_name, _parsed(path, raw, int, 0, _COUNT_MAX, "count"), uc_user)

    path = directory / "review_feedback.tsv"
    rc_user, rc_item, rc_name, raw = _columns(path, 4)
    review_counters = _by_name(
        rc_name, _parsed(path, raw, int, 0, _COUNT_MAX, "count"), rc_user, rc_item
    )

    cat_items, tags = _columns(directory / "item_categories.tsv", 2)
    categories: dict[str, set[str]] = {}
    for item, tag in zip(cat_items, tags):
        if tag:
            categories.setdefault(item, set()).add(tag)

    try:
        d = build_dataset(
            provenance=provenance,
            ratings=ratings,
            friends=tuple(_columns(directory / "friends.tsv", 2)),
            user_counters=user_counters,
            review_counters=review_counters,
            categories=categories,
            extra_items=cat_items,
        )
    except ValueError as exc:
        raise IoFailure(f"inconsistent canonical data: {exc}") from None

    loaded = {
        "num_users": d.num_users,
        "num_items": d.num_items,
        "num_ratings": len(d.ratings),
    }
    for key, count in loaded.items():
        recorded = manifest.get(key)
        if recorded != str(count):
            raise IoFailure(
                f"{directory / 'manifest.txt'}: {key} is {recorded!r}, "
                f"but the files hold {count}"
            )
    return d


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Structural equality over external ids, ignoring handle assignment."""
    return render_canonical(a) == render_canonical(b)
