"""Canonical on-disk dataset format.

A dataset directory holds five TSV files plus a manifest:

    manifest.txt           schema_version=1 / provenance=<tag> / counts
    ratings.tsv            user <TAB> item <TAB> rating
    friends.tsv            user <TAB> user     (smaller external id first)
    user_feedback.tsv      user <TAB> counter <TAB> value
    review_feedback.tsv    user <TAB> item <TAB> counter <TAB> value
    item_categories.tsv    item <TAB> category

Rows are in the order of their external ids, zero counters are omitted,
and floats print in shortest form, so serialization is deterministic:
equal datasets produce byte-identical directories.  Every user appears at
least once in user_feedback.tsv (the review_count row is always written)
and every item at least once in item_categories.tsv (untagged items get
a bare line), which makes the round trip lossless even for entities that
carry no other data.

A save makes no Python object per row.  Each distinct id, tag, counter
name, rating text and count text is encoded once, and each file is one
buffer: a row gathers the start and length of its fields' texts in a pool
of them, and numpy copies those ranges, a part of the file at a time
(:func:`_lines`).  ratings.tsv, friends.tsv and review_feedback.tsv hold
their lines in the order ``sorted`` gives them, yet no line is sorted: a
line's first field sorts as ``id + "\\t"``.  Where no user or item id holds
a character below the tab (U+0000 to U+0008), the rows are written in
store order.  Where an id of a kind holds one, one ``np.lexsort`` over the
ranks of ``id + "\\t"`` orders the rows keyed by that kind
(:func:`_line_ranks`); its order differs from handle order only where
such an id is a prefix of another and the longer one's next character is
below the tab.  user_feedback.tsv and item_categories.tsv are in handle
order.  An id or tag that holds a tab or line break, or does not encode as
UTF-8 (:func:`unsafe_field`), is refused before anything is written.

Every text input, the manifest and the spec file too, is read once, by
:func:`read_utf8`: ``\\r\\n`` and ``\\r`` read as ``\\n``, and a byte that is
not UTF-8 is named by the line that holds it.  Loading a good file makes no
Python object per field: numpy finds each TSV file's tabs and newlines
(:class:`_Table`), and every line's field count is checked from them.
An id column becomes a fixed-width bytes view
with each byte one higher, so that NUL bytes and prefixes compare as in
``str``; ids of up to 8 bytes become big-endian integers.  Columns are
deduplicated by a neighbour compare where they ascend and by a stable
argsort elsewhere, merged per kind of id over their distinct ids, and
only the distinct ids are decoded (:func:`_interner`).  Counter names,
few and known, are searched for among the known ones instead of sorted
(:func:`_read_counters`), and so are review_feedback.tsv's items among
the rated items (:meth:`_Table.ids_among`).  A view costs rows
x its widest field, so a column is read one ``str`` per field where that
would exceed 4 bytes per byte of the column plus 32 per row, or a field
is wider than 256 bytes.  A rating or count column of 1 to 15 ASCII
digits per field, a rating with at most one point between two of them,
is read from its digits by numpy (:func:`_digits`), exactly as Python's
``float`` and ``int`` read them; any other text (a sign, a blank, ``_``,
``'٥'``, an exponent, a NUL byte, more digits) and a value out of range
take the per-field path, ``float`` or ``int`` of each field's str
(:func:`_parsed`).
Each file is checked in the pass that parses it, for a repeated key too
(:meth:`_Table.check_unique`), so errors come in the order the load reads
its files: ratings, user and review feedback, categories, friends.  A failed
check names its row's line and fields from the same bytes (:meth:`_Table.fail`);
only a review of an unrated pair and a counter sum beyond int64, which the
build finds, parse their file again.
"""

from __future__ import annotations

import os
import secrets
from itertools import compress
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .dataset import PROVENANCES, RATING_MAX, RATING_MIN, REVIEW_COUNTERS, USER_COUNTERS
from .dataset import _INT64_MAX, CounterOverflow, Dataset, Interner, build_dataset
from .dataset import search_keys
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


def is_utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8: it holds no lone surrogate, which a
    JSON ``"\\ud800"`` escape reads as."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def unsafe_field(text: str) -> bool:
    """Whether an id or tag cannot be one canonical TSV field: it holds a
    tab or a line break, or it does not encode as UTF-8."""
    return "\t" in text or "\n" in text or "\r" in text or not is_utf8(text)


def read_utf8(path: Path) -> bytes:
    """The bytes of a text file, read once: ``\\r\\n`` and ``\\r`` read as ``\\n``
    (as text mode reads them), checked as UTF-8.  A byte that is not raises
    MalformedRecord naming the line that holds it."""
    data = path.read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise MalformedRecord(path.name, line, "not UTF-8 text") from None
    return data


# bytes of a file built at a time: its index arrays take 16 bytes per byte
_PART = 1 << 16


def _lines(*columns: tuple[list[bytes], np.ndarray]) -> bytearray:
    """One line per row: the texts of the row's fields, joined by tabs.

    A column is its distinct texts, encoded, and each row's index among
    them.  Each text goes into a pool once, followed by its field's
    separator (a newline for the last field), and a row gathers the start
    and length of each field's text there.  The line bytes are then the
    pool's bytes at those ranges, taken by one ``np.repeat`` per part of
    about ``_PART`` bytes, so no array grows with the widest field.
    """
    pools, starts, sizes = [], [], []
    for k, (texts, _) in enumerate(columns):
        sep = b"\n" if k == len(columns) - 1 else b"\t"
        size = np.fromiter(map(len, texts), np.int64, len(texts)) + 1
        starts.append(np.cumsum(size) - size + sum(map(len, pools)))
        sizes.append(size)
        pools.append(sep.join(texts) + sep)
    pool = np.frombuffer(b"".join(pools), dtype=np.uint8)
    ends = np.zeros(len(columns[0][1]), dtype=np.int64)
    for size, (_, codes) in zip(sizes, columns):
        ends += size[codes]
    np.cumsum(ends, out=ends)
    data = bytearray(int(ends[-1]) if ends.size else 0)
    out = np.frombuffer(data, dtype=np.uint8)
    cuts = np.searchsorted(ends, np.arange(_PART, out.size, _PART)).tolist()
    for a, b in zip([0] + cuts, cuts + [ends.size]):
        at = [codes[a:b] for _, codes in columns]
        start = np.column_stack([s[c] for s, c in zip(starts, at)]).ravel()
        size = np.column_stack([s[c] for s, c in zip(sizes, at)]).ravel()
        src = np.repeat(start - (np.cumsum(size) - size), size)  # each field's shift
        src += np.arange(src.size)
        lo = int(ends[a - 1]) if a else 0
        out[lo:lo + src.size] = pool[src]
    return data


def _encoded(texts) -> list[bytes]:
    """Each text's UTF-8 bytes; a lone surrogate keeps its code point's
    order (only :func:`canonical_save` rejects it)."""
    return [text.encode("utf-8", "surrogatepass") for text in texts]


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values ascending and each value's index among them.
    Counts no larger than how many there are take a bincount, not a sort:
    for a review_feedback.tsv of 3.25 M counts, ``np.unique`` takes twice
    the time and adds 74 MiB to the save's peak memory."""
    small = 0 <= values.min(initial=0) and values.max(initial=0) <= values.size
    if values.dtype.kind == "i" and small:
        present = np.bincount(values) > 0
        return np.flatnonzero(present), (np.cumsum(present) - 1)[values]
    return np.unique(values, return_inverse=True)


def _line_ranks(ids: list[bytes]) -> np.ndarray | None:
    """The rank of each id's ``id + "\\t"`` among its kind's, which is its
    order as the first field of sorted lines, or None where no id holds a
    byte below the tab's: only such a byte, after a prefix that is another
    id, puts that order out of handle order."""
    if not (np.frombuffer(b"".join(ids), dtype=np.uint8) < 9).any():
        return None
    order = np.argsort(np.array([i + b"\t" for i in ids], dtype=object), kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(order.size)
    return ranks


def _counters(names: list[str], columns: list[np.ndarray], size: int,
              keep: int | None = None) -> tuple:
    """The (row, name, count) columns of the nonzero entries of counter
    columns of ``size`` rows, the zeros of ``names[keep]`` too, row by row
    and within a row by name."""
    values = np.zeros((size, len(names)), dtype=np.int64)
    for k, column in enumerate(columns):
        values[:, k] = column
    shown = values != 0
    if keep is not None:
        shown[:, keep] = True
    row, col = np.nonzero(shown)
    counts, codes = _distinct(values[row, col])
    return row, (_encoded(names), col), (_encoded(map(str, counts.tolist())), codes)


def _render(d: Dataset) -> dict[str, bytes | bytearray]:
    """Canonical file contents as bytes, keyed by file name.

    ratings.tsv, friends.tsv and review_feedback.tsv are in the order of
    their sorted lines: store order where :func:`_line_ranks` gives None,
    else one ``np.lexsort`` over the ranks.  user_feedback.tsv and
    item_categories.tsv are in handle order.
    """
    users, items = _encoded(d.users.ids.tolist()), _encoded(d.items.ids.tolist())
    user_rank, item_rank = _line_ranks(users), _line_ranks(items)
    store = d.ratings
    pos = slice(None)  # the store positions in line order
    if user_rank is not None or item_rank is not None:
        pos = np.lexsort((store.item_idx if item_rank is None else item_rank[store.item_idx],
                          store.user_idx if user_rank is None else user_rank[store.user_idx]))
    r_user, r_item = store.user_idx[pos], store.item_idx[pos]

    # shortest text that reads back as the same float, "4" for 4.0
    values, codes = _distinct(store.value[pos])
    ratings = _lines((users, r_user), (items, r_item),
                     (_encoded(repr(v).removesuffix(".0") for v in values.tolist()), codes))

    # the smaller handle of an edge comes first; the second field sorts by id
    a, b = d.social.edge_array()
    if user_rank is not None:
        order = np.lexsort((b, user_rank[a]))
        a, b = a[order], b[order]
    friends = _lines((users, a), (users, b))

    # every user gets a review_count row, zero or not
    names = sorted(set(d.feedback.present()) | {"review_count"})
    row, *rest = _counters(names, [d.feedback.col(n) for n in names], d.num_users,
                           keep=names.index("review_count"))
    user_feedback = _lines((users, row), *rest)

    # no review counter name is a prefix of another, so names sort as their lines
    names = list(d.review_feedback.present())
    row, *rest = _counters(names, [d.review_feedback.col(n)[pos] for n in names], len(store))
    review_feedback = _lines((users, r_user[row]), (items, r_item[row]), *rest)

    # each item by handle, then each of its tags; an untagged item gets a bare line
    cats = d.categories
    lines = np.maximum(cats.sizes, 1)
    tags = np.full(int(lines.sum()), len(cats.names))  # the empty text
    tags[np.repeat(cats.sizes > 0, lines)] = cats.tags
    item_categories = _lines((items, np.repeat(np.arange(len(items)), lines)),
                             (_encoded(cats.names) + [b""], tags))

    manifest = (
        f"schema_version={SCHEMA_VERSION}\n"
        f"provenance={d.provenance}\n"
        f"num_users={d.num_users}\n"
        f"num_items={d.num_items}\n"
        f"num_ratings={len(d.ratings)}\n"
    )
    return {
        "manifest.txt": manifest.encode(),
        "ratings.tsv": ratings,
        "friends.tsv": friends,
        "user_feedback.tsv": user_feedback,
        "review_feedback.tsv": review_feedback,
        "item_categories.tsv": item_categories,
    }


def render_canonical(d: Dataset) -> dict[str, str]:
    """Canonical file contents, keyed by file name: the bytes
    :func:`canonical_save` writes, decoded."""
    return {name: data.decode("utf-8", "surrogatepass") for name, data in _render(d).items()}


def write_atomic(directory: Path, files: Mapping[str, bytes | bytearray]) -> None:
    """Write each file beside its target and rename it into place.

    A reader sees every file either whole and old or whole and new.
    Raises OSError.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        tmp = directory / f".{name}.{secrets.token_hex(6)}.tmp"
        try:
            with open(tmp, "xb") as handle:
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
    for what, names in (("user id", d.users.ids.tolist()), ("item id", d.items.ids.tolist()),
                        ("tag", d.categories.names)):
        if unsafe_field("".join(names)):  # one join per kind of id
            bad = next(filter(unsafe_field, names))
            why = "holds a tab or line break" if is_utf8(bad) else "is not UTF-8 text"
            raise IoFailure(f"cannot save {what} {bad!r}: it {why}")
    if "" in d.categories.names:
        raise IoFailure("cannot save tag '': it would read back as an untagged item")
    directory = Path(directory)
    files = _render(d)
    manifest = files.pop("manifest.txt")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "manifest.txt").unlink(missing_ok=True)
        write_atomic(directory, files)
        write_atomic(directory, {"manifest.txt": manifest})
    except OSError as exc:
        raise IoFailure(f"could not write canonical dataset: {exc}") from None


def _read_manifest(directory: Path) -> dict[str, tuple[str, str]]:
    """Each manifest key's ``file:line`` and value."""
    path = directory / "manifest.txt"
    if not path.is_file():
        raise IoFailure(f"missing manifest: {path}")
    fields = {}
    for line_no, line in enumerate(read_utf8(path).decode("utf-8").split("\n"), start=1):
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


# Zero bytes after a file's text: a bytes view of a field this wide or less
# reads in bounds, and a wider field takes the per-field path.
_PAD = 256


def _view_width(lengths: np.ndarray) -> int | None:
    """The width of a bytes view of fields of these lengths, or None when the
    widest would make the view cost more than 4 bytes per byte of the fields
    plus 32 per field, so that one long field does not multiply the memory."""
    width = int(lengths.max(initial=0))
    if width > _PAD or width * lengths.size > 4 * int(lengths.sum()) + 32 * lengths.size:
        return None
    return max(width, 1)


class _Table:
    """The fields of a TSV file's non-blank lines, as byte ranges of its text.

    The file is read once, by :func:`read_utf8`, and its tabs and newlines
    found by numpy, which also checks the field count of every line.  Field k of
    row r ends at byte ``ends[r, k]``, and starts after the field before it
    (the first field at ``first[r]``).
    """

    __slots__ = ("path", "text", "first", "ends")

    def __init__(self, path: Path, width: int):
        data = read_utf8(path)
        self.path = path
        self.text = data + bytes(_PAD)
        text = np.frombuffer(self.text, dtype=np.uint8)
        # tabs and newlines: as unsigned bytes, only 9 and 10 are at most 1 above 9
        seps = np.flatnonzero(text[:len(data)] - np.uint8(9) <= 1)
        if not data.endswith(b"\n") and data:
            seps = np.append(seps, len(data))  # a last line without a newline
        nl = np.flatnonzero(text[seps] != 9)  # each line's end among the separators
        ends = seps[nl]
        first = np.concatenate(([0], ends + 1))[:-1]
        fields = np.diff(nl, prepend=-1)
        blank = first == ends
        bad = (fields != width) & ~blank
        if bad.any():
            line = int(np.argmax(bad))
            raise IoFailure(f"{path.name}:{line + 1}: expected {width} fields, got {fields[line]}")
        if blank.any():
            seps, first = np.delete(seps, nl[blank]), first[~blank]
        self.first, self.ends = first, seps.reshape(-1, width)

    def fail(self, row: int, what: str, shown) -> IoFailure:
        """The error naming row ``row``'s line, blank lines counted, and showing
        ``fields[shown]`` of its fields."""
        start = int(self.first[row])
        fields = tuple(self.text[start:int(self.ends[row, -1])].decode("utf-8").split("\t"))
        line = self.text.count(b"\n", 0, start) + 1
        return IoFailure(f"{self.path.name}:{line}: {what} {fields[shown]!r}")

    def span(self, k: int, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(starts, lengths) of column k's fields, of every row or of ``rows``."""
        starts = self.first if k == 0 else self.ends[:, k - 1] + 1
        ends = self.ends[:, k]
        if rows is not None:
            starts, ends = starts[rows], ends[rows]
        return starts, ends - starts

    def view(self, k: int, width: int, rows=None) -> np.ndarray:
        """Column k's fields as ``S<width>`` values: each field's first ``width``
        bytes, each one higher, zero-padded.  No byte of a field is then 0
        (UTF-8 has no byte 255), so order and equality are the fields', NUL
        bytes and prefixes included."""
        starts, lengths = self.span(k, rows)
        # row n of this view is the text from byte n on
        windows = np.ndarray((len(self.text) - width + 1, width), np.uint8, self.text, 0, (1, 1))
        out = windows[starts]
        out += 1
        if lengths.size and lengths.min() < width:
            out[np.arange(width) >= lengths[:, None]] = 0
        return out.view(f"S{width}").reshape(-1)

    def strs(self, k: int, rows=None) -> list[str]:
        """Column k's fields, one str each."""
        starts, lengths = self.span(k, rows)
        text = self.text
        return [text[s:s + n].decode("utf-8") for s, n in zip(starts.tolist(), lengths.tolist())]

    def keys(self, k: int, rows=None) -> np.ndarray:
        """Column k's fields as keys that compare as the fields do: a shifted
        bytes view, or str objects where a field is too long for one.  Ids
        of up to 8 bytes are big-endian integers, which sort faster than
        bytes and in the same order."""
        starts, lengths = self.span(k, rows)
        width = _view_width(lengths)
        if width is None:
            return np.array(self.strs(k, rows), dtype=object)
        if width > 8:
            return self.view(k, width, rows)
        # the 8 bytes from each start, each one higher, the bytes past the field zeroed
        words = np.ndarray((len(self.text) - 7,), ">u8", self.text, 0, (1,))[starts]
        past = (8 * (8 - lengths)).astype(np.uint64)
        return (words + np.uint64(0x0101010101010101)) >> past << past

    def ids(self, k: int, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Column k's distinct keys and each row's index among them."""
        return _unique(self.keys(k, rows))

    def ids_among(self, k: int, distinct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Column k as :meth:`ids` gives it, but, where each of its keys is one
        of the ascending keys ``distinct``, as ``distinct`` and each row's
        index among them: a run of equal keys is searched for once, and
        nothing is sorted."""
        keys = self.keys(k)
        if distinct.dtype.kind == "S":
            keys = _as_bytes(keys)
        if keys.dtype.kind == distinct.dtype.kind != "O":
            head = np.ones(keys.size, dtype=bool)
            head[1:] = keys[1:] != keys[:-1]
            runs = np.flatnonzero(head)
            at, found = search_keys(distinct, keys[runs])
            if found.all():
                return distinct, np.repeat(at, np.diff(runs, append=keys.size))
        return _unique(keys)

    def check_unique(self, *columns: tuple[np.ndarray, np.ndarray]) -> None:
        """Raise the error naming the first line that repeats an earlier
        line's key, its fields of ``columns`` in field order, each given as
        distinct values and codes (see :meth:`ids`).  Keys that ascend strictly,
        as every saved file's do, need one compare; others a stable argsort."""
        key = np.zeros(len(self.ends), dtype=np.int64)
        for distinct, codes in columns:
            key *= len(distinct)
            key += codes
        if (key[1:] > key[:-1]).all():
            return
        order = np.argsort(key, kind="stable")  # the rows of one key stay in file order
        later = order[1:][key[order[1:]] == key[order[:-1]]]
        if later.size:
            raise self.fail(int(later.min()), "repeated key", slice(-1))


def _unique(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values ascending, and each value's index among them.

    An ascending column needs only a compare with its neighbour; another is
    sorted first, by a stable argsort (np.unique's sort is slower on bytes).
    """
    order = None
    if not (values[1:] >= values[:-1]).all():
        order = np.argsort(values, kind="stable")
        values = values[order]
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    codes = np.cumsum(first) - 1
    if order is not None:
        codes[order] = codes.copy()
    return values[first], codes


def _encode(ids: list[str], dtype: np.dtype) -> tuple[list[str], np.ndarray]:
    """Those of the ascending ``ids`` that keys of ``dtype`` (see
    :meth:`_Table.keys`) can hold, and their keys; a longer id is no field's."""
    if dtype == object:
        return ids, np.array(ids, dtype=object)
    ids = [i for i in ids if len(i.encode()) <= dtype.itemsize]
    keys = np.array([bytes(b + 1 for b in i.encode()) for i in ids], dtype=f"S{dtype.itemsize}")
    return ids, keys.view(">u8") if dtype.kind == "u" else keys


def _as_bytes(values: np.ndarray) -> np.ndarray:
    """Keys that are integers (see :meth:`_Table.keys`) as their bytes view."""
    return values.astype(">u8").view("S8") if values.dtype.kind == "u" else values


def _decode(values: np.ndarray) -> list[str]:
    """The str of each of :meth:`_Table.keys`' keys."""
    if values.dtype == object:
        return values.tolist()
    values = _as_bytes(values)
    width = values.dtype.itemsize
    shifted = values.view(np.uint8).reshape(-1, width)
    out = np.full((shifted.shape[0], width + 1), ord("\n"), dtype=np.uint8)
    out[:, :width] = shifted - 1
    keep = np.ones(out.shape, dtype=bool)
    keep[:, :width] = shifted > 0  # a field's bytes, without the padding
    # no field holds a newline, so each id is one line
    return out[keep].tobytes().decode("utf-8").split("\n")[:-1]


def _interner(*columns: tuple[np.ndarray, np.ndarray]) -> tuple[Interner, list[np.ndarray]]:
    """One interner over the ids of several columns, each given as its
    distinct ids and codes (see :meth:`_Table.ids`), and each column's
    handles in it.  Only the distinct ids become str."""
    distinct = [d for d, _ in columns]
    if any(d.dtype == object for d in distinct):  # a column too long for a bytes view
        distinct = [d if d.dtype == object else np.array(_decode(d), dtype=object)
                    for d in distinct]
    elif len({d.dtype.kind for d in distinct}) > 1:  # integers beside wider bytes
        distinct = list(map(_as_bytes, distinct))
    ids, at = _unique(np.concatenate(distinct))
    bounds = np.cumsum([d.size for d in distinct[:-1]], dtype=np.int64)
    return (Interner(_decode(ids)),
            [where[codes] for where, (_, codes) in zip(np.split(at, bounds), columns)])


class _Counters(NamedTuple):
    """The rows of a counter file, each key once: ids, counter name and value per row.

    ``ids`` holds each id column as distinct ids and codes (see
    :meth:`_Table.ids`), ``names`` the counter names present, sorted, and
    ``codes`` each row's index among them.
    """

    path: Path
    ids: list[tuple[np.ndarray, np.ndarray]]
    names: list[str]
    codes: np.ndarray
    values: np.ndarray

    def table(self, *handles: np.ndarray) -> tuple:
        """The counter table ``(*handles, {name: values})`` over the id
        columns' handles, each name's values zero on the other names' rows."""
        return (*handles, {n: np.where(self.codes == k, self.values, 0)
                           for k, n in enumerate(self.names)})

    def fail(self, row: int, what: str, shown) -> IoFailure:
        """:meth:`_Table.fail` of the file, parsed again."""
        return _Table(self.path, len(self.ids) + 2).fail(row, what, shown)


def _read_counters(path: Path, width: int, known: tuple[str, ...],
                   items: np.ndarray | None = None) -> _Counters:
    """A counter file's rows; its item column, if any, looked up among the
    distinct keys ``items`` (see :meth:`_Table.ids_among`)."""
    table = _Table(path, width)
    values = _parsed(table, width - 1, int, 0, _INT64_MAX, "count")
    # the names are few and known: a search among them costs less than a sort
    keys = table.keys(width - 2)
    names, vocabulary = _encode(sorted(known), keys.dtype)
    at, found = search_keys(vocabulary, keys)
    if not found.all():
        raise table.fail(int(np.argmin(found)), "unknown counter", -2)
    ids = [table.ids(0)] + ([table.ids_among(1, items)] if width == 4 else [])
    table.check_unique(*ids, (vocabulary, at))
    present = np.bincount(at, minlength=len(names)) > 0
    return _Counters(path, ids, list(compress(names, present)), (np.cumsum(present) - 1)[at],
                     values)


# 10**n as floats, each exact: 10**15 < 2**53
_POW10 = np.array([float(10**n) for n in range(16)])

# the most digits the digit reader takes: any 15 of them read below 2**53
_DIGITS = 15


def _digits(table: _Table, k: int, point: bool) -> np.ndarray | None:
    """Column k read from its ASCII digits, or None when a field is not 1 to
    15 of them (with ``point``, one ``.`` may stand between two): int64
    values, or float64 with ``point``.

    Horner's rule takes one byte column of every field at a time into one
    int64 accumulator, N, skipping the point.  A field with f digits after
    the point reads as N / 10**f: both are exact, so the one rounding of the
    division gives Python's ``float`` of the text, as ``int`` of it is N.
    """
    starts, lengths = table.span(k)
    shortest, width = int(lengths.min(initial=1)), int(lengths.max(initial=0))
    if shortest < 1 or width > _DIGITS + point:  # an empty field, or too long
        return None
    text = np.frombuffer(table.text, dtype=np.uint8)
    value = np.zeros(lengths.size, dtype=np.int64)
    points = np.zeros(lengths.size, dtype=np.uint8)
    after = np.zeros(lengths.size, dtype=np.uint8)  # digits after the point
    for c in range(width):
        digit = text[c:][starts] - np.uint8(48)  # any other byte wraps above 9
        take = seen = digit <= 9
        if point and c:  # a field's first byte must be a digit
            is_point = digit == np.uint8(256 + ord(".") - 48)
            seen = take | is_point
        if c >= shortest:  # byte c is past the end of some fields
            inside = lengths > c
            seen = seen | ~inside
            take &= inside
            if point:
                is_point &= inside
        if not seen.all():  # a byte of a field is neither
            return None
        if point and c:
            points += is_point
            after += take & (points > 0)
        if take.all():
            value *= 10
        else:  # times 10 at a digit, times 1 at the point and past the field
            value *= np.uint8(1) + np.uint8(9) * take
            digit *= take
        value += digit
    if not point:
        return value
    # one point at most, with a digit after it, and at most 15 digits
    if not ((points <= 1).all() and (after >= points).all()
            and (width <= _DIGITS or (lengths - points <= _DIGITS).all())):
        return None
    return value / _POW10[after]


def _parsed(table: _Table, k: int, kind: type, lo, hi, what: str) -> np.ndarray:
    """Column k as ``kind`` values in [lo, hi]; IoFailure naming the first bad line.

    A column of plain digits, with a point for a ``float``, is read from
    them (:func:`_digits`).  Any other text (a sign, a blank, ``_``,
    ``'٥'``, an exponent, a NUL byte, more than 15 digits) and a value out
    of range take the per-field path: ``kind`` of each field's str.
    """
    values = _digits(table, k, kind is float)
    if values is not None and (not values.size or values.min() >= lo and values.max() <= hi):
        return values
    out = []
    for row, field in enumerate(table.strs(k)):
        try:
            value = kind(field)
        except ValueError:
            value = None
        if value is None or not lo <= value <= hi:
            raise table.fail(row, f"bad {what}", -1)
        out.append(value)
    return np.array(out, dtype=np.float64 if kind is float else np.int64)


def canonical_load(directory: str | Path) -> Dataset:
    """Read a canonical directory back into a Dataset."""
    directory = Path(directory)
    if not directory.is_dir():
        raise IoFailure(f"not a canonical dataset directory: {directory}")
    manifest = _read_manifest(directory)
    for name in _FILES:
        if not (directory / name).is_file():
            raise IoFailure(f"missing canonical file: {directory / name}")

    ratings = _Table(directory / "ratings.tsv", 3)
    values = _parsed(ratings, 2, float, RATING_MIN, RATING_MAX, "rating value")
    r_user, r_item = ratings.ids(0), ratings.ids(1)
    ratings.check_unique(r_user, r_item)
    del ratings

    uc = _read_counters(directory / "user_feedback.tsv", 3, USER_COUNTERS)
    # a review is of a rated pair: its item is looked up among the rated items
    rc = _read_counters(directory / "review_feedback.tsv", 4, REVIEW_COUNTERS, r_item[0])

    # a bare line names an item without tags
    cats = _Table(directory / "item_categories.tsv", 2)
    has_tags = cats.span(1)[1] > 0
    cat_items, tags = cats.ids(0), cats.ids(1, has_tags)
    friends = _Table(directory / "friends.tsv", 2)
    friend_ids = friends.ids(0), friends.ids(1)
    del cats, friends

    # one interner per kind of id, over every file
    users, (rating_user, friend, friend_of, uc_user, rc_user) = _interner(
        r_user, *friend_ids, *uc.ids, rc.ids[0])
    items, (rating_item, rc_item, listed) = _interner(r_item, rc.ids[1], cat_items)
    names, (tag_ids,) = _interner(tags)
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
    except CounterOverflow as exc:  # no key repeats and each row fits: a sum of counters
        counters = uc if exc.name in uc.names else rc
        raise counters.fail(exc.row, str(exc), slice(None)) from None
    except ValueError as exc:  # a review of an unrated pair
        rated = np.sort(rating_user * len(items) + rating_item)
        found = search_keys(rated, rc_user * len(items) + rc_item)[1]
        if not found.all():
            raise rc.fail(int(np.argmin(found)), "review of an unrated pair", slice(2)) from None
        raise IoFailure(f"inconsistent canonical data: {exc}") from None

    for key, count in zip(_MANIFEST_KEYS[2:], (d.num_users, d.num_items, len(d.ratings))):
        where, recorded = manifest[key]
        if recorded != str(count):
            raise IoFailure(f"{where}: {key} is {recorded!r}, but the files hold {count}")
    return d


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Structural equality over external ids, ignoring handle assignment."""
    return _render(a) == _render(b)
