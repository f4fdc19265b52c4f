"""Readers for the two supported raw dump families.

Yelp dumps are JSON-lines files (business, review, user, tip).  The
LibraryThing dump stores one review per line as a JSON or Python-literal
dict, plus a whitespace-separated friend-pair file.  Both readers:

* read each text input once, as a stream of lines (:func:`_lines`): ``\\r\\n``
  and ``\\r`` read as ``\\n``, and a byte that is not UTF-8 is named by its line;
* factorize their id columns once, after parsing, into one user and one
  item interner and a column of handles each (``dataset.factorize``), so
  references always resolve and nothing after that looks an id up again:
  the duplicate check, the row selection and the builder work on handles;
* collapse duplicate (user, item) reviews onto the latest by source
  timestamp, counting the collisions;
* drop reviews without a usable rating (missing, null or outside the
  1..5 scale), counting the drops;
* reject a rating, a count or a timestamp that is a boolean, and a count
  that is not a whole number, naming the file and line;
* name an empty or unsafe id, and a counter beyond int64, by the line the
  reader recorded for the row as it parsed it: no file is read twice.

Raw field quirks are normalized here and nowhere else: comma-separated
friend/elite strings vs. real lists, feedback counts nested in a
``votes`` object vs. flat fields, tip appreciation named ``likes`` vs.
``compliment_count``.
"""

from __future__ import annotations

import ast
import json
from functools import partial
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .canonical import is_utf8, unsafe_field
# make_dataset stays importable here: perfbench/spans.py traces this name
from .dataset import RATING_MAX, RATING_MIN, CounterOverflow, Dataset, IngestWarnings
from .dataset import Interner, build_dataset, factorize
from .dataset import make_dataset  # noqa: F401
from .errors import MalformedRecord, MissingFile


def _require(path: Path) -> Path:
    if not path.is_file():
        raise MissingFile(f"required input file not found: {path}")
    return path


def _lines(path: Path) -> Iterator[tuple[int, str]]:
    """The numbered lines of a UTF-8 text file, read once in batches of about
    64 KiB; ``\\r\\n``, ``\\r`` and ``\\n`` end a line.  A byte that is not UTF-8 is
    a lone surrogate its batch fails to encode: the lines before it come first."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        line_no = 1
        for lines in iter(partial(handle.readlines, 1 << 16), []):
            try:
                "".join(lines).encode()
            except UnicodeEncodeError as exc:
                good = exc.object.count("\n", 0, exc.start)
                yield from enumerate(lines[:good], line_no)
                raise MalformedRecord(path.name, line_no + good, "not UTF-8 text") from None
            yield from enumerate(lines, line_no)
            line_no += len(lines)


_raw_decode = json.JSONDecoder().raw_decode


def _iter_json_lines(path: Path) -> Iterator[tuple[int, dict]]:
    source = path.name
    for line_no, line in _lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            # raw_decode skips json.loads' per-call checks; a line that
            # fails them is parsed again by json.loads, for its error
            record, end = _raw_decode(line)
            if end != len(line):
                record = json.loads(line)
        except ValueError:  # a JSONDecodeError, or an integer too long to convert
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise MalformedRecord(source, line_no, f"invalid JSON: {exc}") from None
        except RecursionError:
            raise MalformedRecord(source, line_no, "JSON nested too deeply") from None
        if not isinstance(record, dict):
            raise MalformedRecord(source, line_no, "expected a JSON object")
        yield line_no, record


def _listish(record: dict, name: str, source: str, line_no: int) -> list[str]:
    """Normalize Yelp's sometimes-string, sometimes-list fields."""
    raw = record.get(name)
    if raw is None:
        return []
    if isinstance(raw, str):
        return [part for part in (p.strip() for p in raw.split(",")) if part and part != "None"]
    if not isinstance(raw, (list, dict)):
        raise MalformedRecord(source, line_no, f"{name} is not a list or a string")
    return [str(part).strip() for part in raw if str(part).strip()]


def _int_field(record: dict, name: str, source: str, line_no: int) -> int:
    """A count, 0 when missing or negative.  A boolean, or a number that is
    not whole (``3.0`` reads as 3), is not an integer."""
    value = record.get(name, 0)
    if type(value) is not int:
        try:
            if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
                raise ValueError
            value = int(value)
        except (TypeError, ValueError, OverflowError):
            raise MalformedRecord(source, line_no, f"{name} is not an integer") from None
    return value if value > 0 else 0


def _counts(values: list[int]) -> np.ndarray:
    """Counts as an int64 array, or as an object array when one does not fit,
    so that the builder raises CounterOverflow naming its row."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _latest(users: np.ndarray, items: np.ndarray, stamps: list) -> tuple[np.ndarray, int]:
    """The rows left when each (user, item) pair of handles keeps its latest row.

    The latest row has the largest stamp, and of equal stamps the last
    one; stamps are compared only among the rows of pairs that repeat.
    Returns the kept row indices in file order and the number dropped.
    """
    keys = users * (int(items.max(initial=-1)) + 1) + items
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeats = keys[1:] == keys[:-1]
    if not repeats.any():
        return np.arange(keys.size), 0
    # the rows of pairs that repeat, by pair and then in file order
    in_run = np.zeros(keys.size, dtype=bool)
    in_run[1:] = repeats
    in_run[:-1] |= repeats
    rows, pairs = order[in_run], keys[in_run]
    # a stable sort keeps one pair's rows of equal stamps in file order
    row_stamps = list(map(stamps.__getitem__, rows.tolist()))
    rank = np.empty(rows.size, dtype=np.int64)
    rank[sorted(range(rows.size), key=row_stamps.__getitem__)] = np.arange(rows.size)
    latest = np.lexsort((rank, pairs))
    # each row followed by one of its own pair is not the latest
    dropped = rows[latest[:-1][pairs[latest[1:]] == pairs[latest[:-1]]]]
    kept = np.ones(keys.size, dtype=bool)
    kept[dropped] = False
    return np.flatnonzero(kept), int(dropped.size)


def _check_ids(*files: tuple[Path, list[tuple[str, Interner, np.ndarray, list[int]]]]) -> None:
    """Raise MalformedRecord for the first record, by file, line and field, that
    holds an empty or unsafe id.  Each file comes with its id columns in field
    order, each ``(field, interner, handles, lines)`` with the line the reader
    recorded for each row; a good dump pays one scan of its distinct ids."""
    interners = {id(column[1]): column[1] for _, columns in files for column in columns}
    ids = np.concatenate([interner.ids for interner in interners.values()]).tolist()
    if all(ids) and not unsafe_field("".join(ids)):
        return
    for path, columns in files:
        found = []
        for at, (_, interner, handles, lines) in enumerate(columns):
            bad = np.array([not i or unsafe_field(i) for i in interner.ids], dtype=bool)
            found += [(lines[row], at, row) for row in np.flatnonzero(bad[handles]).tolist()]
        if found:
            line_no, at, row = min(found)
            field, interner, handles, _ = columns[at]
            bad = interner.ids[handles[row]]
            why = "is empty or holds a tab or line break" if is_utf8(bad) else "is not UTF-8 text"
            raise MalformedRecord(path.name, line_no, f"{field} {bad!r} {why}")


def ingest_yelp(
    business_file: str | Path,
    review_file: str | Path,
    user_file: str | Path,
    tip_file: str | Path,
) -> Dataset:
    """Read a Yelp dump into a Dataset.

    Stars become ratings; review useful/funny/cool counts become
    per-review feedback; user profiles contribute elite years, the three
    compliment counters (write-more, thank-you notes, good-writer), fan
    counts and the friend graph; tips contribute their count and
    received appreciation per author.
    """
    business_file, review_file, user_file, tip_file = (
        _require(Path(f)) for f in (business_file, review_file, user_file, tip_file))

    # a business listed twice keeps the last line's tags
    source = business_file.name
    categories: dict[str, list[str]] = {}
    b_first: dict[str, int] = {}
    b_last: dict[str, int] = {}
    for line_no, record in _iter_json_lines(business_file):
        business = record.get("business_id")
        if not business:
            raise MalformedRecord(source, line_no, "missing business_id")
        categories[str(business)] = _listish(record, "categories", source, line_no)
        b_first.setdefault(str(business), line_no)
        b_last[str(business)] = line_no

    source = review_file.name
    r_user: list[str] = []
    r_item: list[str] = []
    r_date: list[str] = []
    r_stars: list[float] = []
    r_useful: list[int] = []
    r_funny: list[int] = []
    r_cool: list[int] = []
    r_line: list[int] = []
    for line_no, record in _iter_json_lines(review_file):
        user = record.get("user_id")
        business = record.get("business_id")
        if not user or not business:
            raise MalformedRecord(source, line_no, "missing user_id or business_id")
        stars = record.get("stars")
        try:
            if isinstance(stars, bool):
                raise TypeError
            rating = float(stars)
        except (TypeError, ValueError, OverflowError):
            raise MalformedRecord(source, line_no, "stars is not numeric") from None
        if not RATING_MIN <= rating <= RATING_MAX:
            raise MalformedRecord(source, line_no, f"stars {rating} outside 1..5")
        votes = record.get("votes")
        if not isinstance(votes, dict):
            votes = record
        r_user.append(str(user))
        r_item.append(str(business))
        r_date.append(str(record.get("date") or ""))
        r_stars.append(rating)
        r_line.append(line_no)
        # a count that is a non-negative int is taken as it is, and _int_field
        # reads or rejects the rest, in the order it would read them all
        useful, funny, cool = votes.get("useful", 0), votes.get("funny", 0), votes.get("cool", 0)
        r_useful.append(useful if type(useful) is int and useful >= 0
                        else _int_field(votes, "useful", source, line_no))
        r_funny.append(funny if type(funny) is int and funny >= 0
                       else _int_field(votes, "funny", source, line_no))
        r_cool.append(cool if type(cool) is int and cool >= 0
                      else _int_field(votes, "cool", source, line_no))

    # a user listed twice keeps the last line's profile and every line's friends
    source = user_file.name
    profiles: dict[str, tuple[int, int, int, int, int]] = {}
    p_first: dict[str, int] = {}
    p_last: dict[str, int] = {}
    f_user: list[str] = []
    f_friend: list[str] = []
    f_line: list[int] = []
    for line_no, record in _iter_json_lines(user_file):
        user = record.get("user_id")
        if not user:
            raise MalformedRecord(source, line_no, "missing user_id")
        user = str(user)
        elite = len(_listish(record, "elite", source, line_no))
        more, note = record.get("compliment_more", 0), record.get("compliment_note", 0)
        writer, fans = record.get("compliment_writer", 0), record.get("fans", 0)
        profiles[user] = (
            elite,
            more if type(more) is int and more >= 0
            else _int_field(record, "compliment_more", source, line_no),
            note if type(note) is int and note >= 0
            else _int_field(record, "compliment_note", source, line_no),
            writer if type(writer) is int and writer >= 0
            else _int_field(record, "compliment_writer", source, line_no),
            fans if type(fans) is int and fans >= 0
            else _int_field(record, "fans", source, line_no),
        )
        p_first.setdefault(user, line_no)
        p_last[user] = line_no
        friends = _listish(record, "friends", source, line_no)
        f_friend += friends
        f_user += [user] * len(friends)  # a self-friend is dropped by the graph
        f_line += [line_no] * len(friends)

    source = tip_file.name
    t_user: list[str] = []
    t_likes: list[int] = []
    t_line: list[int] = []
    for line_no, record in _iter_json_lines(tip_file):
        user = record.get("user_id")
        if not user:
            raise MalformedRecord(source, line_no, "missing user_id")
        name = "likes" if "likes" in record else "compliment_count"
        likes = record.get(name, 0)
        t_user.append(str(user))
        t_line.append(line_no)
        t_likes.append(likes if type(likes) is int and likes >= 0
                       else _int_field(record, name, source, line_no))

    users, (r_user, p_user, f_user, f_friend, t_user) = factorize(
        r_user, list(profiles), f_user, f_friend, t_user)
    items, (r_item, business) = factorize(r_item, list(categories))
    tags, (tag_ids,) = factorize(list(chain.from_iterable(categories.values())))
    per_business = list(map(len, categories.values()))
    tagged = np.repeat(business, per_business)
    b_first, b_last = list(b_first.values()), list(b_last.values())
    p_first, p_last = list(p_first.values()), list(p_last.values())
    _check_ids(  # a business or user by its first line, the tags it keeps by its last
        (business_file, [("business_id", items, business, b_first),
                         ("category", tags, tag_ids, np.repeat(b_last, per_business).tolist())]),
        (review_file, [("user_id", users, r_user, r_line),
                       ("business_id", items, r_item, r_line)]),
        (user_file, [("user_id", users, p_user, p_first), ("friend", users, f_friend, f_line)]),
        (tip_file, [("user_id", users, t_user, t_line)]))

    kept, duplicates = _latest(r_user, r_item, r_date)
    k_user, k_item = r_user[kept], r_item[kept]
    useful, funny, cool = (_counts(col)[kept] for col in (r_useful, r_funny, r_cool))
    try:
        return build_dataset(
            provenance="yelp",
            users=users,
            items=items,
            ratings=(k_user, k_item, np.array(r_stars)[kept]),
            friends=(f_user, f_friend),
            user_counters=[
                (p_user, dict(zip(("elite_years", "more", "thx", "gw", "fans"),
                                  zip(*profiles.values())))),
                (t_user, {"tip_likes": t_likes,
                          "tip_count": np.ones(len(t_likes), dtype=np.int64)}),
                (k_user, {"review_useful": useful, "review_funny": funny, "review_cool": cool,
                          "review_count": np.ones(kept.size, dtype=np.int64)}),
            ],
            review_counters=[(k_user, k_item, {"useful": useful, "funny": funny, "cool": cool})],
            categories=(tagged, tags, tag_ids),
            warnings=IngestWarnings(duplicate_ratings=duplicates),
        )
    except CounterOverflow as exc:
        # a row is a user's profile, from its last line, a tip, or a kept review
        path, line_no = ((user_file, p_last[exc.row]) if exc.name in ("more", "thx", "gw", "fans")
                         else (tip_file, t_line[exc.row]) if exc.name.startswith("tip_")
                         else (review_file, r_line[kept[exc.row]]))
        raise MalformedRecord(path.name, line_no, str(exc)) from None


def _parse_librarything_line(source: str, line_no: int, line: str) -> dict:
    start = line.find("{")
    if start < 0:
        raise MalformedRecord(source, line_no, "no record found on line")
    body = line[start:]
    try:
        record = json.loads(body)
    except (ValueError, RecursionError):  # ValueError covers JSONDecodeError
        try:
            record = ast.literal_eval(body)
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError) as exc:
            raise MalformedRecord(source, line_no, f"unparseable record: {exc}") from None
    if not isinstance(record, dict):
        raise MalformedRecord(source, line_no, "expected a dict record")
    return record


def _iter_librarything(path: Path) -> Iterator[tuple[int, dict]]:
    for line_no, line in _lines(path):
        line = line.strip()
        if line:
            yield line_no, _parse_librarything_line(path.name, line_no, line)


def ingest_librarything(review_file: str | Path, friend_file: str | Path) -> Dataset:
    """Read a LibraryThing dump into a Dataset.

    Reviews carry a star rating and a helpfulness count; reviews whose
    stars are missing, null, zero or outside the 1..5 scale are dropped
    and counted.  The friend file lists one user pair per line.
    """
    review_file = _require(Path(review_file))
    friend_file = _require(Path(friend_file))

    source = review_file.name
    r_user: list[str] = []
    r_item: list[str] = []
    r_stamp: list[int | float] = []
    r_stars: list[float] = []
    r_help: list[int] = []
    r_line: list[int] = []
    dropped = 0
    for line_no, record in _iter_librarything(review_file):
        user = record.get("user")
        work = record.get("work")
        if user is None or work is None:
            raise MalformedRecord(source, line_no, "missing user or work")
        stars = record.get("stars")
        try:
            if isinstance(stars, bool):
                raise TypeError
            rating = float(stars) if stars is not None else 0.0
        except (TypeError, ValueError, OverflowError):
            raise MalformedRecord(source, line_no, "stars is not numeric") from None
        if not RATING_MIN <= rating <= RATING_MAX:  # missing, null or off the scale
            dropped += 1
            continue
        raw = record.get("nhelpful")
        # a missing, null, zero or empty count reads 0; false is not a count
        nhelpful = _int_field(record, "nhelpful", source, line_no) if raw or raw is False else 0
        stamp = record.get("unixtime")
        if isinstance(stamp, bool):
            raise MalformedRecord(source, line_no, "unixtime is not numeric")
        try:  # a number is compared by value, an int exactly
            stamp = stamp if isinstance(stamp, (int, float)) else int(stamp or 0)
        except (TypeError, ValueError):
            stamp = 0
        r_user.append(str(user))
        r_item.append(str(work))
        r_stamp.append(stamp if stamp - stamp == 0 else 0)  # inf and NaN read 0
        r_stars.append(rating)
        r_help.append(nhelpful)
        r_line.append(line_no)

    # self-loops go in too: the graph drops them, and their user is still interned
    f_a: list[str] = []
    f_b: list[str] = []
    f_line: list[int] = []
    for line_no, line in _lines(friend_file):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise MalformedRecord(friend_file.name, line_no, "expected two user ids")
        f_a.append(parts[0])
        f_b.append(parts[1])
        f_line.append(line_no)

    users, (r_user, f_a, f_b) = factorize(r_user, f_a, f_b)
    items, (r_item,) = factorize(r_item)
    _check_ids((review_file, [("user", users, r_user, r_line), ("work", items, r_item, r_line)]),
               (friend_file, [("friend", users, f_a, f_line), ("friend", users, f_b, f_line)]))

    kept, duplicates = _latest(r_user, r_item, r_stamp)
    k_user, k_item = r_user[kept], r_item[kept]
    helpful = _counts(r_help)[kept]
    try:
        return build_dataset(
            provenance="librarything",
            users=users,
            items=items,
            ratings=(k_user, k_item, np.array(r_stars)[kept]),
            friends=(f_a, f_b),
            user_counters=[(k_user, {"nhelpful_total": helpful,
                                     "review_count": np.ones(kept.size, dtype=np.int64)})],
            review_counters=[(k_user, k_item, {"nhelpful": helpful})],
            warnings=IngestWarnings(duplicate_ratings=duplicates, dropped_unrated=dropped),
        )
    except CounterOverflow as exc:  # each row is a kept review
        raise MalformedRecord(source, r_line[kept[exc.row]], str(exc)) from None


def _closure(lines: Iterable[str]) -> frozenset[str]:
    """Category tags, one per line, '#' comments allowed."""
    return frozenset(filter(None, (line.split("#", 1)[0].strip() for line in lines)))


def load_category_closure(path: str | Path) -> frozenset[str]:
    """Category tags from a text file, one per line, '#' comments allowed."""
    return _closure(line for _, line in _lines(_require(Path(path))))


def restaurants_food_closure() -> frozenset[str]:
    """The bundled restaurants-and-food category closure."""
    text = resources.files("trustcf").joinpath(
        "data/restaurants_food_categories.txt"
    ).read_text(encoding="utf-8")
    return _closure(text.split("\n"))  # the lines _lines gives: only "\n" ends one
