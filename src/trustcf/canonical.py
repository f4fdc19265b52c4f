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

from pathlib import Path

import numpy as np

from .dataset import Dataset, IngestWarnings, make_dataset
from .errors import IoFailure, SchemaVersionMismatch

SCHEMA_VERSION = "1"

_FILES = (
    "ratings.tsv",
    "friends.tsv",
    "user_feedback.tsv",
    "review_feedback.tsv",
    "item_categories.tsv",
)


def _format_rating(value: float) -> str:
    return format(value, "g")


def render_canonical(d: Dataset) -> dict[str, str]:
    """Canonical file contents, keyed by file name."""
    users = d.users
    items = d.items

    lines = [
        f"{users.external(u)}\t{items.external(i)}\t{_format_rating(v)}"
        for u, i, v in d.ratings.triples()
    ]
    ratings = "".join(line + "\n" for line in sorted(lines))

    edge_lines = []
    for a, b in d.social.edges():
        ea, eb = users.external(a), users.external(b)
        if eb < ea:
            ea, eb = eb, ea
        edge_lines.append(f"{ea}\t{eb}")
    friends = "".join(line + "\n" for line in sorted(edge_lines))

    fb_lines = []
    present = d.feedback.present()
    for ext in sorted(users):
        u = users.handle(ext)
        rows = {name: int(d.feedback.col(name)[u]) for name in present}
        rows = {name: v for name, v in rows.items() if v}
        rows.setdefault("review_count", int(d.feedback.col("review_count")[u]))
        for name in sorted(rows):
            fb_lines.append(f"{ext}\t{name}\t{rows[name]}")
    user_feedback = "".join(line + "\n" for line in fb_lines)

    rf_lines = []
    store = d.ratings
    for name in d.review_feedback.present():
        col = d.review_feedback.col(name)
        for pos in np.flatnonzero(col):
            rf_lines.append(
                f"{users.external(int(store.user_idx[pos]))}"
                f"\t{items.external(int(store.item_idx[pos]))}"
                f"\t{name}\t{int(col[pos])}"
            )
    review_feedback = "".join(line + "\n" for line in sorted(rf_lines))

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


def canonical_save(d: Dataset, directory: str | Path) -> None:
    """Write a dataset as a canonical directory (creating it if needed)."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, content in render_canonical(d).items():
            (directory / name).write_text(content, encoding="utf-8")
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


def _split(source: str, line_no: int, line: str, n: int) -> list[str]:
    parts = line.split("\t")
    if len(parts) != n:
        raise IoFailure(f"{source}:{line_no}: expected {n} fields, got {len(parts)}")
    return parts


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

    def rows(name: str, width: int):
        with open(directory / name, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if line:
                    yield _split(name, line_no, line, width)

    try:
        ratings = [(user, item, float(raw)) for user, item, raw in rows("ratings.tsv", 3)]
    except ValueError:
        raise _bad_value(directory / "ratings.tsv", float, "rating value") from None

    friends = [(a, b) for a, b in rows("friends.tsv", 2)]

    user_counters: dict[str, dict[str, int]] = {}
    try:
        for user, counter, raw in rows("user_feedback.tsv", 3):
            user_counters.setdefault(counter, {})[user] = int(raw)
    except ValueError:
        raise _bad_value(directory / "user_feedback.tsv", int, "count") from None

    review_counters: dict[str, dict[tuple[str, str], int]] = {}
    try:
        for user, item, counter, raw in rows("review_feedback.tsv", 4):
            review_counters.setdefault(counter, {})[(user, item)] = int(raw)
    except ValueError:
        raise _bad_value(directory / "review_feedback.tsv", int, "count") from None

    categories: dict[str, set[str]] = {}
    extra_items = set()
    for item, tag in rows("item_categories.tsv", 2):
        extra_items.add(item)
        if tag:
            categories.setdefault(item, set()).add(tag)

    try:
        d = make_dataset(
            provenance=provenance,
            ratings=ratings,
            friends=friends,
            user_counters=user_counters,
            review_counters=review_counters,
            categories=categories,
            extra_items=extra_items,
            warnings=IngestWarnings(),
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
