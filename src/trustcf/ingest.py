"""Readers for the two supported raw dump families.

Yelp dumps are JSON-lines files (business, review, user, tip).  The
LibraryThing dump stores one review per line as a JSON or Python-literal
dict, plus a whitespace-separated friend-pair file.  Both readers:

* intern every user/item id they encounter, so references always resolve;
* collapse duplicate (user, item) reviews onto the latest by source
  timestamp, counting the collisions;
* drop reviews without a usable rating (missing, null or outside the
  1..5 scale), counting the drops.

Raw field quirks are normalized here and nowhere else: comma-separated
friend/elite strings vs. real lists, feedback counts nested in a
``votes`` object vs. flat fields, tip appreciation named ``likes`` vs.
``compliment_count``.
"""

from __future__ import annotations

import ast
import json
from importlib import resources
from pathlib import Path
from typing import Iterator

# make_dataset stays importable here: perfbench/spans.py traces this name
from .dataset import Dataset, IngestWarnings, build_dataset, make_dataset  # noqa: F401
from .errors import MalformedRecord, MissingFile


def _require(path: Path) -> Path:
    if not path.is_file():
        raise MissingFile(f"required input file not found: {path}")
    return path


_raw_decode = json.JSONDecoder().raw_decode


def _iter_json_lines(path: Path) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                # raw_decode skips json.loads' per-call checks; a line that
                # fails them is parsed again by json.loads, for its error
                record, end = _raw_decode(line)
                if end != len(line):
                    record = json.loads(line)
            except json.JSONDecodeError:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(path.name, line_no, f"invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise MalformedRecord(path.name, line_no, "expected a JSON object")
            yield line_no, record


def _listish(raw) -> list[str]:
    """Normalize Yelp's sometimes-string, sometimes-list fields."""
    if raw is None:
        return []
    if isinstance(raw, str):
        return [part for part in (p.strip() for p in raw.split(",")) if part and part != "None"]
    return [str(part).strip() for part in raw if str(part).strip()]


def _int_field(record: dict, name: str, source: str, line_no: int) -> int:
    value = record.get(name, 0)
    if type(value) is not int:
        try:
            value = int(value)
        except (TypeError, ValueError):
            raise MalformedRecord(source, line_no, f"{name} is not an integer") from None
    return value if value > 0 else 0


def _latest(users: list[str], items: list[str], stamps: list) -> tuple[list[int], int]:
    """The rows left when each (user, item) pair keeps its latest row.

    The latest row has the largest stamp, and of equal stamps the last
    one.  Returns the kept row indices and the number of rows dropped.
    """
    last = dict(zip(zip(users, items), range(len(users))))
    dropped = len(users) - len(last)
    if dropped:
        # a stable sort keeps rows of equal stamps in file order
        order = sorted(range(len(users)), key=stamps.__getitem__)
        pairs = zip(map(users.__getitem__, order), map(items.__getitem__, order))
        last = dict(zip(pairs, order))
    return list(last.values()), dropped


def _pick(column: list, rows: list[int]) -> list:
    return list(map(column.__getitem__, rows))


def _unsafe(text: str) -> bool:
    """Whether an id cannot be a canonical TSV field: empty, or holding
    a tab or a line break."""
    return not text or "\t" in text or "\n" in text or "\r" in text


def _check_ids(ids: set[str], sources) -> None:
    """Raise MalformedRecord for the first record holding an unsafe id.

    ``sources`` yields ``(file name, line, [(field, value), ...])`` per
    record; it is read only when ``ids`` hold an unsafe one, so a good
    dump pays one scan of its distinct ids.
    """
    if "" not in ids and not _unsafe("".join(ids)):
        return
    for source, line_no, fields in sources:
        for field, value in fields:
            if _unsafe(value):
                raise MalformedRecord(
                    source, line_no,
                    f"{field} {value!r} is empty or holds a tab or line break",
                )
    bad = sorted(i for i in ids if _unsafe(i))
    if bad:  # the files changed while being read
        raise MalformedRecord("input", 0, f"id {bad[0]!r} is empty or holds a tab or line break")


def _yelp_id_fields(business_file: Path, review_file: Path, user_file: Path, tip_file: Path):
    for line_no, r in _iter_json_lines(business_file):
        tags = [("category", tag) for tag in _listish(r.get("categories"))]
        yield business_file.name, line_no, [("business_id", str(r.get("business_id")))] + tags
    for line_no, r in _iter_json_lines(review_file):
        yield review_file.name, line_no, [
            ("user_id", str(r.get("user_id"))), ("business_id", str(r.get("business_id")))
        ]
    for line_no, r in _iter_json_lines(user_file):
        friends = [("friend", friend) for friend in _listish(r.get("friends"))]
        yield user_file.name, line_no, [("user_id", str(r.get("user_id")))] + friends
    for line_no, r in _iter_json_lines(tip_file):
        yield tip_file.name, line_no, [("user_id", str(r.get("user_id")))]


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
    files = [_require(Path(f)) for f in (business_file, review_file, user_file, tip_file)]
    business_file, review_file, user_file, tip_file = files

    source = business_file.name
    categories: dict[str, list[str]] = {}
    for line_no, record in _iter_json_lines(business_file):
        business = record.get("business_id")
        if not business:
            raise MalformedRecord(source, line_no, "missing business_id")
        categories[str(business)] = _listish(record.get("categories"))

    source = review_file.name
    r_user: list[str] = []
    r_item: list[str] = []
    r_date: list[str] = []
    r_stars: list[float] = []
    r_useful: list[int] = []
    r_funny: list[int] = []
    r_cool: list[int] = []
    for line_no, record in _iter_json_lines(review_file):
        user = record.get("user_id")
        business = record.get("business_id")
        if not user or not business:
            raise MalformedRecord(source, line_no, "missing user_id or business_id")
        try:
            rating = float(record.get("stars"))
        except (TypeError, ValueError):
            raise MalformedRecord(source, line_no, "stars is not numeric") from None
        if not 1.0 <= rating <= 5.0:
            raise MalformedRecord(source, line_no, f"stars {rating} outside 1..5")
        votes = record.get("votes")
        if not isinstance(votes, dict):
            votes = record
        r_user.append(str(user))
        r_item.append(str(business))
        r_date.append(str(record.get("date") or ""))
        r_stars.append(rating)
        r_useful.append(_int_field(votes, "useful", source, line_no))
        r_funny.append(_int_field(votes, "funny", source, line_no))
        r_cool.append(_int_field(votes, "cool", source, line_no))

    # a user listed twice keeps the last line's profile and every line's friends
    source = user_file.name
    profiles: dict[str, tuple[int, int, int, int, int]] = {}
    f_user: list[str] = []
    f_friend: list[str] = []
    for line_no, record in _iter_json_lines(user_file):
        user = record.get("user_id")
        if not user:
            raise MalformedRecord(source, line_no, "missing user_id")
        user = str(user)
        profiles[user] = (
            len(_listish(record.get("elite"))),
            _int_field(record, "compliment_more", source, line_no),
            _int_field(record, "compliment_note", source, line_no),
            _int_field(record, "compliment_writer", source, line_no),
            _int_field(record, "fans", source, line_no),
        )
        friends = _listish(record.get("friends"))
        f_friend += friends
        f_user += [user] * len(friends)  # a self-friend is dropped by the graph

    source = tip_file.name
    t_user: list[str] = []
    t_likes: list[int] = []
    for line_no, record in _iter_json_lines(tip_file):
        user = record.get("user_id")
        if not user:
            raise MalformedRecord(source, line_no, "missing user_id")
        name = "likes" if "likes" in record else "compliment_count"
        t_user.append(str(user))
        t_likes.append(_int_field(record, name, source, line_no))

    user_ids = set(r_user).union(profiles, f_friend, t_user)
    item_ids = set(r_item).union(categories)
    tags = set().union(*categories.values())
    _check_ids(user_ids | item_ids | tags, _yelp_id_fields(*files))

    kept, duplicates = _latest(r_user, r_item, r_date)
    k_user, k_item = _pick(r_user, kept), _pick(r_item, kept)
    useful, funny, cool = (_pick(col, kept) for col in (r_useful, r_funny, r_cool))
    p_user = list(profiles)
    elite, more, thx, gw, fans = [list(col) for col in zip(*profiles.values())] or [[]] * 5
    return build_dataset(
        provenance="yelp",
        ratings=(k_user, k_item, _pick(r_stars, kept)),
        friends=(f_user, f_friend),
        user_counters={
            "elite_years": (p_user, elite),
            "more": (p_user, more),
            "thx": (p_user, thx),
            "gw": (p_user, gw),
            "fans": (p_user, fans),
            "tip_likes": (t_user, t_likes),
            "tip_count": (t_user, [1] * len(t_user)),
            "review_useful": (k_user, useful),
            "review_funny": (k_user, funny),
            "review_cool": (k_user, cool),
            "review_count": (k_user, [1] * len(kept)),
        },
        review_counters={
            "useful": (k_user, k_item, useful),
            "funny": (k_user, k_item, funny),
            "cool": (k_user, k_item, cool),
        },
        categories={b: tags for b, tags in categories.items() if tags},
        extra_items=categories.keys(),
        warnings=IngestWarnings(duplicate_ratings=duplicates),
    )


def _parse_librarything_line(source: str, line_no: int, line: str) -> dict:
    start = line.find("{")
    if start < 0:
        raise MalformedRecord(source, line_no, "no record found on line")
    body = line[start:]
    try:
        record = json.loads(body)
    except json.JSONDecodeError:
        try:
            record = ast.literal_eval(body)
        except (ValueError, SyntaxError) as exc:
            raise MalformedRecord(source, line_no, f"unparseable record: {exc}") from None
    if not isinstance(record, dict):
        raise MalformedRecord(source, line_no, "expected a dict record")
    return record


def _iter_librarything(path: Path) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                yield line_no, _parse_librarything_line(path.name, line_no, line)


def _lt_rating(record: dict, source: str, line_no: int) -> float | None:
    """A review's stars, or None when they are missing, null or off the 1..5 scale."""
    stars = record.get("stars")
    try:
        rating = float(stars) if stars is not None else 0.0
    except (TypeError, ValueError):
        raise MalformedRecord(source, line_no, "stars is not numeric") from None
    return rating if 1.0 <= rating <= 5.0 else None


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
    r_stamp: list[int] = []
    r_stars: list[float] = []
    r_help: list[int] = []
    dropped = 0
    for line_no, record in _iter_librarything(review_file):
        user = record.get("user")
        work = record.get("work")
        if user is None or work is None:
            raise MalformedRecord(source, line_no, "missing user or work")
        rating = _lt_rating(record, source, line_no)
        if rating is None:
            dropped += 1
            continue
        nhelpful = record.get("nhelpful") or 0
        try:
            nhelpful = max(int(nhelpful), 0)
        except (TypeError, ValueError):
            raise MalformedRecord(source, line_no, "nhelpful is not an integer") from None
        try:
            stamp = int(record.get("unixtime") or 0)
        except (TypeError, ValueError):
            stamp = 0
        r_user.append(str(user))
        r_item.append(str(work))
        r_stamp.append(stamp)
        r_stars.append(rating)
        r_help.append(nhelpful)

    # self-loops go in too: the graph drops them, and their user is still interned
    f_a: list[str] = []
    f_b: list[str] = []
    with open(friend_file, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise MalformedRecord(friend_file.name, line_no, "expected two user ids")
            f_a.append(parts[0])
            f_b.append(parts[1])

    def id_fields():
        for line_no, r in _iter_librarything(review_file):
            if _lt_rating(r, source, line_no) is not None:
                yield source, line_no, [("user", str(r.get("user"))), ("work", str(r.get("work")))]

    _check_ids(set(r_user).union(r_item), id_fields())

    kept, duplicates = _latest(r_user, r_item, r_stamp)
    k_user, k_item, helpful = (_pick(col, kept) for col in (r_user, r_item, r_help))
    return build_dataset(
        provenance="librarything",
        ratings=(k_user, k_item, _pick(r_stars, kept)),
        friends=(f_a, f_b),
        user_counters={
            "nhelpful_total": (k_user, helpful),
            "review_count": (k_user, [1] * len(kept)),
        },
        review_counters={"nhelpful": (k_user, k_item, helpful)},
        warnings=IngestWarnings(duplicate_ratings=duplicates, dropped_unrated=dropped),
    )


def load_category_closure(path: str | Path) -> frozenset[str]:
    """Category tags from a text file, one per line, '#' comments allowed."""
    path = _require(Path(path))
    tags = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                tags.add(line)
    return frozenset(tags)


def restaurants_food_closure() -> frozenset[str]:
    """The bundled restaurants-and-food category closure."""
    text = resources.files("trustcf").joinpath(
        "data/restaurants_food_categories.txt"
    ).read_text(encoding="utf-8")
    tags = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tags.add(line)
    return frozenset(tags)
