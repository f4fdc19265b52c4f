"""Raw-file ingestion and the canonical on-disk format."""

from __future__ import annotations

import json
import os
import random
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from trustcf import canonical, canonical_load, canonical_save, ingest, ingest_librarything
from trustcf import ingest_yelp
from trustcf.canonical import datasets_equal, render_canonical
from trustcf.dataset import IngestWarnings, Interner
from trustcf.errors import IoFailure, MalformedRecord, SchemaVersionMismatch, TrustcfError
from trustcf.ingest import load_category_closure, restaurants_food_closure

import reference
from conftest import build_tiny, random_dataset

# the benchmark's corpora, at the scales its workloads save them
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from corpus import scaled, synth_corpus  # noqa: E402
from workloads import EVAL_SCALE, ROUNDTRIP_SCALE  # noqa: E402


def per_field_reads(monkeypatch) -> list[tuple[str, int]]:
    """The (file, column) of each column the canonical load reads one str per
    field, as it is loaded."""
    seen = []
    strs = canonical._Table.strs

    def spy(table, k, rows=None):
        seen.append((table.path.name, k))
        return strs(table, k, rows)

    monkeypatch.setattr(canonical._Table, "strs", spy)
    return seen


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


@pytest.fixture
def yelp_dir(tmp_path):
    """A miniature raw dump exercising every quirk the reader handles."""
    write_lines(tmp_path / "business.json", [
        {"business_id": "b1", "categories": ["Restaurants", "Pizza"]},
        {"business_id": "b2", "categories": "Auto Repair, Tires"},
        {"business_id": "b3", "categories": None},
    ])
    write_lines(tmp_path / "review.json", [
        {"user_id": "u1", "business_id": "b1", "stars": 4,
         "date": "2012-01-01", "useful": 2, "funny": 1, "cool": 0},
        # stale duplicate of (u1, b1); the later date above must win
        {"user_id": "u1", "business_id": "b1", "stars": 1,
         "date": "2011-06-01", "useful": 9, "funny": 9, "cool": 9},
        {"user_id": "u2", "business_id": "b1", "stars": 5,
         "date": "2012-02-02", "votes": {"useful": 3, "funny": 0, "cool": 1}},
        {"user_id": "u2", "business_id": "b2", "stars": 2, "date": "2012-03-03"},
    ])
    write_lines(tmp_path / "user.json", [
        {"user_id": "u1", "elite": ["2010", "2012"], "fans": 3,
         "friends": ["u2", "u3"],
         "compliment_more": 1, "compliment_note": 2, "compliment_writer": 3},
        {"user_id": "u2", "elite": "2011", "fans": 0, "friends": "u1"},
        {"user_id": "u3", "elite": [], "fans": 1, "friends": []},
    ])
    write_lines(tmp_path / "tip.json", [
        {"user_id": "u1", "business_id": "b1", "likes": 4},
        {"user_id": "u1", "business_id": "b2", "compliment_count": 1},
        {"user_id": "u2", "business_id": "b1", "likes": 0},
    ])
    return tmp_path


def _int_digits_error(digits: int) -> str:
    """The message for an integer literal too long to convert."""
    try:
        int("1" * digits)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("integer string conversion is not limited")


class TestYelpIngest:
    def test_population(self, yelp_dir):
        d = ingest_yelp(
            yelp_dir / "business.json", yelp_dir / "review.json",
            yelp_dir / "user.json", yelp_dir / "tip.json",
        )
        # u3 never rated but appears in the user file, b3 never rated
        assert list(d.users) == ["u1", "u2", "u3"]
        assert list(d.items) == ["b1", "b2", "b3"]
        assert len(d.ratings) == 3
        assert d.warnings.duplicate_ratings == 1

    def test_duplicate_keeps_latest_by_date(self, yelp_dir):
        d = ingest_yelp(
            yelp_dir / "business.json", yelp_dir / "review.json",
            yelp_dir / "user.json", yelp_dir / "tip.json",
        )
        u1, b1 = d.users.handle("u1"), d.items.handle("b1")
        items, values = d.ratings.items_of(u1)
        assert values[list(items).index(b1)] == 4.0
        # the stale record's vote counts must not leak through
        assert d.review_feedback.total_of(u1, b1) == 3

    def test_counters(self, yelp_dir):
        d = ingest_yelp(
            yelp_dir / "business.json", yelp_dir / "review.json",
            yelp_dir / "user.json", yelp_dir / "tip.json",
        )
        u1, u2, u3 = (d.users.handle(x) for x in ("u1", "u2", "u3"))
        fb = d.feedback
        assert fb.col("elite_years")[u1] == 2
        assert fb.col("elite_years")[u2] == 1
        assert fb.col("more")[u1] == 1
        assert fb.col("thx")[u1] == 2
        assert fb.col("gw")[u1] == 3
        assert fb.col("fans")[u3] == 1
        assert fb.col("tip_likes")[u1] == 5  # 4 likes + 1 compliment_count
        assert fb.col("tip_count")[u1] == 2
        assert fb.col("review_useful")[u2] == 3
        assert fb.col("review_cool")[u2] == 1
        assert fb.col("review_count")[u1] == 1

    def test_friend_graph_is_symmetric(self, yelp_dir):
        d = ingest_yelp(
            yelp_dir / "business.json", yelp_dir / "review.json",
            yelp_dir / "user.json", yelp_dir / "tip.json",
        )
        u1, u2, u3 = (d.users.handle(x) for x in ("u1", "u2", "u3"))
        assert d.social.has_edge(u1, u2) and d.social.has_edge(u2, u1)
        assert d.social.has_edge(u1, u3)
        assert not d.social.has_edge(u2, u3)

    def test_categories(self, yelp_dir):
        d = ingest_yelp(
            yelp_dir / "business.json", yelp_dir / "review.json",
            yelp_dir / "user.json", yelp_dir / "tip.json",
        )
        assert d.categories.of(d.items.handle("b1")) == frozenset({"Restaurants", "Pizza"})
        assert d.categories.of(d.items.handle("b2")) == frozenset({"Auto Repair", "Tires"})
        assert d.categories.of(d.items.handle("b3")) == frozenset()

    def test_out_of_range_stars_rejected(self, yelp_dir):
        write_lines(yelp_dir / "review.json", [
            {"user_id": "u1", "business_id": "b1", "stars": 7, "date": "2012-01-01"},
        ])
        with pytest.raises(MalformedRecord):
            ingest_yelp(
                yelp_dir / "business.json", yelp_dir / "review.json",
                yelp_dir / "user.json", yelp_dir / "tip.json",
            )

    def test_garbage_json_line_rejected(self, yelp_dir):
        (yelp_dir / "business.json").write_text('{"business_id": "b1"\nnot json\n')
        with pytest.raises(MalformedRecord) as exc:
            ingest_yelp(
                yelp_dir / "business.json", yelp_dir / "review.json",
                yelp_dir / "user.json", yelp_dir / "tip.json",
            )
        assert exc.value.line_number == 1

    @pytest.mark.parametrize("line, reason", [
        ("[" * 100000, "JSON nested too deeply"),
        ('{"user_id": "u1", "business_id": "b1", "stars": 4, "useful": Infinity}',
         "useful is not an integer"),
        ('{"user_id": "u1", "business_id": "b1", "stars": 4, "useful": ' + "1" * 5000 + "}",
         f"invalid JSON: {_int_digits_error(5000)}"),
        ('{"user_id": "u1", "business_id": "b1", "stars": 1' + "0" * 400 + "}",
         "stars is not numeric"),
        ('{"user_id": "u1"} {"x": 1}', "invalid JSON: Extra data: line 1 column 19 (char 18)"),
        ('["u1", "b1", 4]', "expected a JSON object"),
        ('{"user_id": "u1", "business_id": "b1", "stars": true}', "stars is not numeric"),
        ('{"user_id": "u1", "business_id": "b1", "stars": 4, "useful": 2.7}',
         "useful is not an integer"),
        ('{"user_id": "u1", "business_id": "b1", "stars": 4, "votes": {"cool": true}}',
         "cool is not an integer"),
        ('{"user_id": "u1", "business_id": "b1", "stars": 4, "funny": "3.5"}',
         "funny is not an integer"),
        ('{"user_id": "u1", "business_id": "b1", "stars": 4, "useful": true}',
         "useful is not an integer"),
        ('{"user_id": "u1", "business_id": "b1", "stars": 4, "funny": false}',
         "funny is not an integer"),
    ], ids=["deep", "infinite", "long-integer", "huge-stars", "trailing-data", "not-an-object",
            "boolean-stars", "fractional-count", "boolean-count", "fractional-string",
            "boolean-useful", "boolean-funny"])
    def test_bad_review_line_names_its_line(self, yelp_dir, line, reason):
        with open(yelp_dir / "review.json", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(MalformedRecord) as caught:
            ingest_yelp(*yelp_files(yelp_dir))
        assert (caught.value.source, caught.value.line_number) == ("review.json", 5)
        assert caught.value.reason == reason

    @pytest.mark.parametrize("name, record, reason", [
        ("user.json", {"user_id": "u4", "fans": 1.9}, "fans is not an integer"),
        ("user.json", {"user_id": "u4", "compliment_more": True}, "compliment_more is not an integer"),
        ("tip.json", {"user_id": "u4", "likes": 0.5}, "likes is not an integer"),
        ("tip.json", {"user_id": "u4", "compliment_count": False},
         "compliment_count is not an integer"),
        # a boolean is an int to isinstance: each count is checked by its type
        ("user.json", {"user_id": "u4", "compliment_note": False},
         "compliment_note is not an integer"),
        ("user.json", {"user_id": "u4", "compliment_writer": True},
         "compliment_writer is not an integer"),
        ("user.json", {"user_id": "u4", "fans": True}, "fans is not an integer"),
        ("tip.json", {"user_id": "u4", "likes": True}, "likes is not an integer"),
    ], ids=["fractional-fans", "boolean-compliment", "fractional-likes", "boolean-compliments",
            "boolean-note", "boolean-writer", "boolean-fans", "boolean-likes"])
    def test_bad_count_names_its_line(self, yelp_dir, name, record, reason):
        with open(yelp_dir / name, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(MalformedRecord) as caught:
            ingest_yelp(*yelp_files(yelp_dir))
        assert (caught.value.source, caught.value.line_number, caught.value.reason) == (
            name, 4, reason)

    def test_whole_float_counts_read_as_integers(self, yelp_dir):
        with open(yelp_dir / "user.json", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"user_id": "u4", "fans": 3.0, "compliment_more": -2.0}) + "\n")
        d = ingest_yelp(*yelp_files(yelp_dir))
        u4 = d.users.handle("u4")
        assert (d.feedback.col("fans")[u4], d.feedback.col("more")[u4]) == (3, 0)

    @pytest.mark.parametrize("name, record, field", [
        ("business.json", {"business_id": "b4", "categories": 5}, "categories"),
        ("user.json", {"user_id": "u4", "friends": 5}, "friends"),
        ("user.json", {"user_id": "u4", "elite": True}, "elite"),
    ], ids=["categories", "friends", "elite"])
    def test_scalar_list_field_names_its_line(self, yelp_dir, name, record, field):
        with open(yelp_dir / name, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(MalformedRecord) as caught:
            ingest_yelp(*yelp_files(yelp_dir))
        assert (caught.value.source, caught.value.line_number) == (name, 4)
        assert caught.value.reason == f"{field} is not a list or a string"


def count_reads(monkeypatch, *readers) -> list[str]:
    """Wrap each ``(owner, name)`` reader, a module's ``open`` or a ``Path``
    method, to record the path of every file it reads; return the record."""
    opened = []

    def counting(read):
        def counted(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return read(file, *args, **kwargs)
        return counted

    for owner, name in readers:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name, open)), raising=False)
    return opened


@pytest.fixture
def each_file_opened_once(monkeypatch):
    """Count the files ingest and canonical open: an error is named from the
    one read of its file, a byte that is not UTF-8 included, so no raw file
    is opened twice."""
    opened = count_reads(monkeypatch, (ingest, "open"), (canonical, "open"))
    yield
    assert opened and max(Counter(opened).values()) == 1, Counter(opened)


@pytest.mark.usefixtures("each_file_opened_once")
class TestCountersBeyondInt64:
    """A counter that does not fit in int64, alone or added up over a user's
    rows, is a data error naming the line that takes it there."""

    @pytest.mark.parametrize("name, record, line", [
        ("review.json", {"user_id": "u3", "business_id": "b1", "stars": 4,
                         "useful": 99999999999999999999999}, 5),
        # u1's kept review already has funny 1
        ("review.json", {"user_id": "u1", "business_id": "b2", "stars": 4,
                         "funny": 2 ** 63 - 1}, 5),
        # a user's last line is the profile that counts
        ("user.json", {"user_id": "u2", "fans": 2 ** 63}, 4),
        # u1's tips already have 4 likes and a compliment
        ("tip.json", {"user_id": "u1", "likes": 2 ** 63 - 5}, 4),
        # counters read added up: one review's useful+funny+cool, one profile's compliments
        ("review.json", {"user_id": "u3", "business_id": "b1", "stars": 4,
                         "useful": 2 ** 62, "funny": 2 ** 62}, 5),
        ("user.json", {"user_id": "u3", "compliment_more": 2 ** 62,
                       "compliment_note": 2 ** 62}, 4),
        # u2's received feedback: 3 useful and 1 cool on an earlier review
        ("review.json", {"user_id": "u2", "business_id": "b3", "stars": 3,
                         "useful": 2 ** 63 - 4}, 5),
        # the same sum, taken there by a tip: the tip's line is named
        ("tip.json", {"user_id": "u2", "business_id": "b2", "likes": 2 ** 63 - 3}, 4),
    ], ids=["review-value", "review-sum", "profile", "tip-sum",
            "review-totals", "compliments", "received", "received-by-tip"])
    def test_yelp(self, yelp_dir, name, record, line):
        with open(yelp_dir / name, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(MalformedRecord) as caught:
            ingest_yelp(*yelp_files(yelp_dir))
        assert (caught.value.source, caught.value.line_number) == (name, line)
        assert caught.value.reason.endswith("does not fit in int64")

    @pytest.mark.parametrize("name, record", [
        ("review.json", {"user_id": "u1", "business_id": "b1", "stars": 3,
                         "date": "2010-01-01", "useful": 2 ** 63}),
        ("user.json", {"user_id": "u3", "fans": 2 ** 63}),
    ], ids=["older-review", "earlier-profile"])
    def test_replaced_record_is_not_counted(self, yelp_dir, name, record):
        path = yelp_dir / name
        path.write_text(json.dumps(record) + "\n" + path.read_text(encoding="utf-8"),
                        encoding="utf-8")
        ingest_yelp(*yelp_files(yelp_dir))

    @pytest.mark.parametrize("nhelpful", [2 ** 63, 2 ** 63 - 2], ids=["value", "sum"])
    def test_librarything(self, lt_dir, nhelpful):
        # u1's kept review of w1 already has nhelpful 2
        line = json.dumps({"work": "w4", "user": "u1", "stars": 4, "nhelpful": nhelpful})
        (lt_dir / "reviews.txt").write_text(LT_LINES + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as caught:
            ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")
        assert (caught.value.source, caught.value.line_number) == ("reviews.txt", 7)
        assert caught.value.reason.endswith("does not fit in int64")


LT_LINES = """\
u1 https://example.invalid/work/1 {'work': 'w1', 'user': 'u1', 'stars': 4.5, 'unixtime': 1300000000, 'nhelpful': 2, 'comment': "it's fine"}
{"work": "w1", "user": "u2", "stars": 3.0, "unixtime": 1300000010, "nhelpful": 0}
u1 {'work': 'w2', 'user': 'u1', 'unixtime': 1300000020, 'nhelpful': 5}
u2 {'work': 'w2', 'user': 'u2', 'stars': 0, 'unixtime': 1300000030}
u2 {'work': 'w1', 'user': 'u2', 'stars': 5.0, 'unixtime': 1300000040}
u1 {'work': 'w3', 'user': 'u1', 'stars': None, 'unixtime': 1300000050}
"""


@pytest.fixture
def lt_dir(tmp_path):
    (tmp_path / "reviews.txt").write_text(LT_LINES, encoding="utf-8")
    (tmp_path / "edges.txt").write_text("u1 u2\nu2\tu3\nu1 u1\n", encoding="utf-8")
    return tmp_path


class TestLibraryThingIngest:
    def test_population_and_drops(self, lt_dir):
        d = ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")
        # three keepable ratings, one superseded by a later duplicate
        assert len(d.ratings) == 2
        assert d.warnings.dropped_unrated == 3  # missing stars, stars 0, stars None
        assert d.warnings.duplicate_ratings == 1
        u2, w1 = d.users.handle("u2"), d.items.handle("w1")
        _, values = d.ratings.items_of(u2)
        assert values[0] == 5.0  # unixtime 1300000040 wins over 1300000010

    def test_nhelpful_feeds_both_tables(self, lt_dir):
        d = ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")
        u1 = d.users.handle("u1")
        assert d.feedback.col("nhelpful_total")[u1] == 2
        assert d.review_feedback.total_of(u1, d.items.handle("w1")) == 2

    def test_friend_pairs(self, lt_dir):
        d = ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")
        u1, u2, u3 = (d.users.handle(x) for x in ("u1", "u2", "u3"))
        assert d.social.has_edge(u1, u2)
        assert d.social.has_edge(u2, u3)
        assert d.social.degree(u1) == 1  # the self-loop line was dropped

    def test_malformed_friend_line(self, lt_dir):
        (lt_dir / "edges.txt").write_text("u1 u2 u3\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")

    def test_unparseable_review_line(self, lt_dir):
        (lt_dir / "reviews.txt").write_text("no braces here\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")

    @pytest.mark.parametrize("line", [
        '{"work": "w1", "user": "u1", "stars": 4, "x": ' + "[" * 100000,
        "{'work': 'w1', 'user': 'u1', 'stars': 4, 'x': " + "-" * 100000 + "1}",
        '{"work": "w1", "user": "u1", "stars": 4, "nhelpful": 1e999}',
        '{"work": "w1", "user": "u1", "stars": 4, "nhelpful": ' + "1" * 5000 + "}",
        "{'work': 'w1', ['user']: 'u1', 'stars': 4}",
        '{"work": "w1", "user": "u1", "stars": 1' + "0" * 400 + "}",
        "{'work': 'w1', 'user': 'u1', 'stars': 1" + "0" * 400 + "}",
        "{'work', 'w1', 'user', 'u1'}",
        '{"work": "w1", "user": "u1", "stars": true}',
        "{'work': 'w1', 'user': 'u1', 'stars': 4, 'nhelpful': 2.5}",
        '{"work": "w1", "user": "u1", "stars": 4, "nhelpful": true}',
        "{'work': 'w1', 'user': 'u1', 'stars': 4, 'nhelpful': False}",
        "{'work': 'w1', 'user': 'u1', 'stars': 4, 'unixtime': True}",
    ], ids=["deep-json", "deep-literal", "infinite", "long-integer", "unhashable-key",
            "huge-stars-json", "huge-stars-literal", "set", "boolean-stars", "fractional-count",
            "boolean-count", "false-count", "boolean-unixtime"])
    def test_bad_review_line_names_its_line(self, lt_dir, line):
        (lt_dir / "reviews.txt").write_text(LT_LINES + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as caught:
            ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")
        assert (caught.value.source, caught.value.line_number) == ("reviews.txt", 7)

    @pytest.mark.parametrize("line, reason", [
        ('{"work": "w4", "user": "u1", "stars": false}', "stars is not numeric"),
        ('{"work": "w4", "user": "u1", "stars": 4, "nhelpful": 0.5}', "nhelpful is not an integer"),
        ('{"work": "w4", "user": "u1", "stars": 4, "nhelpful": true}', "nhelpful is not an integer"),
        ('{"work": "w4", "user": "u1", "stars": 4, "unixtime": false}', "unixtime is not numeric"),
    ], ids=["boolean-stars", "fractional-count", "boolean-count", "boolean-unixtime"])
    def test_bad_value_gives_its_reason(self, lt_dir, line, reason):
        (lt_dir / "reviews.txt").write_text(LT_LINES + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as caught:
            ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")
        assert caught.value.reason == reason

    def test_whole_float_count_reads_as_integer(self, lt_dir):
        line = '{"work": "w4", "user": "u1", "stars": 4, "nhelpful": 3.0}'
        (lt_dir / "reviews.txt").write_text(LT_LINES + line + "\n", encoding="utf-8")
        d = ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")
        u1, w4 = d.users.handle("u1"), d.items.handle("w4")
        assert d.review_feedback.total_of(u1, w4) == 3

    def test_fractional_unixtime_compares_by_value(self, tmp_path):
        # truncated, both stamps would read 1 and the later line would win
        reviews = [{"work": "w1", "user": "u1", "stars": 5, "unixtime": 1.9},
                   {"work": "w1", "user": "u1", "stars": 1, "unixtime": 1.2},
                   {"work": "w2", "user": "u1", "stars": 2, "unixtime": 2 ** 60},
                   {"work": "w2", "user": "u1", "stars": 3, "unixtime": 2 ** 60 + 1},
                   {"work": "w2", "user": "u1", "stars": 4, "unixtime": float(2 ** 60)}]
        write_librarything(tmp_path, reviews, [])
        d = ingest_librarything(tmp_path / "reviews.txt", tmp_path / "edges.txt")
        # an int stamp stays exact: 2^60 + 1 is later than the float 2^60
        assert [v for _, _, v in d.ratings.triples()] == [5.0, 3.0]
        assert d.warnings.duplicate_ratings == 3
        expected, duplicates, _ = reference.naive_librarything_canonical(reviews, [])
        assert render_canonical(d) == expected and duplicates == 3

    def test_boolean_unixtime_does_not_tie_with_one(self, tmp_path):
        write_librarything(tmp_path, [{"work": "w1", "user": "u1", "stars": 5, "unixtime": 1},
                                      {"work": "w1", "user": "u1", "stars": 1, "unixtime": True}],
                           [])
        with pytest.raises(MalformedRecord) as caught:
            ingest_librarything(tmp_path / "reviews.txt", tmp_path / "edges.txt")
        assert (caught.value.line_number, caught.value.reason) == (2, "unixtime is not numeric")

    def test_infinite_unixtime_reads_as_zero(self, lt_dir):
        (lt_dir / "reviews.txt").write_text(
            '{"work": "w1", "user": "u1", "stars": 4, "unixtime": Infinity}\n', encoding="utf-8")
        d = ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")
        assert len(d.ratings) == 1


def yelp_files(directory):
    return [directory / name for name in ("business.json", "review.json", "user.json", "tip.json")]


@pytest.mark.usefixtures("each_file_opened_once")
class TestUnsafeIds:
    """Ids that could not be written as one canonical TSV field."""

    @pytest.mark.parametrize("name, index, field, bad", [
        ("review.json", 2, "user_id", "u\t2"),
        ("review.json", 3, "business_id", "b\n2"),
        ("business.json", 2, "business_id", "b\r2"),
        ("user.json", 2, "friends", ["u1", "u\t9"]),
        ("tip.json", 1, "user_id", "u\t1"),
        ("business.json", 1, "categories", ["Pizza", "Tab\tbed"]),
    ])
    def test_yelp_names_file_and_line(self, yelp_dir, name, index, field, bad):
        path = yelp_dir / name
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[index][field] = bad
        write_lines(path, records)
        with pytest.raises(MalformedRecord) as caught:
            ingest_yelp(*yelp_files(yelp_dir))
        assert (caught.value.source, caught.value.line_number) == (name, index + 1)
        assert "tab or line break" in caught.value.reason

    @pytest.mark.parametrize("field, bad", [
        ("user", "a\tb"), ("user", ""), ("work", ""), ("work", "w\n1"),
    ])
    def test_librarything_names_file_and_line(self, lt_dir, field, bad):
        lines = LT_LINES.splitlines()
        record = json.loads(lines[1])
        record[field] = bad
        lines[1] = json.dumps(record)
        # the same id on a review that is dropped for its stars counts for nothing
        lines[0] = json.dumps({"work": bad, "user": bad, "stars": None})
        (lt_dir / "reviews.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as caught:
            ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")
        assert (caught.value.source, caught.value.line_number) == ("reviews.txt", 2)

    @pytest.mark.parametrize("name, records, line, reason", [
        # a business listed twice: its first line
        ("business.json", [{"business_id": "b1"}, {"business_id": "b\t4"}, {"business_id": "b2"},
                           {"business_id": "b\t4", "categories": ["Pizza"]}], 2,
         "business_id 'b\\t4'"),
        # a user listed twice: its first line
        ("user.json", [{"user_id": "u1"}, {"user_id": "u\n4", "friends": ["u1"]}, {"user_id": "u2"},
                       {"user_id": "u\n4", "fans": 2}], 2, "user_id 'u\\n4'"),
        # two bad fields of one record: its first field, then the first entry of a list
        ("review.json", [{"user_id": "u\t4", "business_id": "b\t4", "stars": 4}], 1,
         "user_id 'u\\t4'"),
        ("business.json", [{"business_id": "b\r4", "categories": ["Tab\tbed"]}], 1,
         "business_id 'b\\r4'"),
        ("user.json", [{"user_id": "u1", "friends": ["u\t8", "u\t7"]}], 1, "friend 'u\\t8'"),
        # a bad tag a business keeps: the line it keeps its tags from
        ("business.json", [{"business_id": "b1", "categories": ["Tab\tbed"]}, {"business_id": "b2"},
                           {"business_id": "b1", "categories": ["Tab\tbed"]}], 3,
         "category 'Tab\\tbed'"),
    ], ids=["business-twice", "user-twice", "review", "business", "friends", "kept-tag"])
    def test_first_bad_record_is_named(self, yelp_dir, name, records, line, reason):
        write_lines(yelp_dir / name, records)
        with pytest.raises(MalformedRecord) as caught:
            ingest_yelp(*yelp_files(yelp_dir))
        assert (caught.value.source, caught.value.line_number) == (name, line)
        assert caught.value.reason == f"{reason} is empty or holds a tab or line break"

    def test_a_file_read_earlier_is_named_first(self, yelp_dir):
        # the id is in review.json's third line and user.json's first
        write_lines(yelp_dir / "user.json", [{"user_id": "u\t2"}])
        records = [json.loads(line) for line in (yelp_dir / "review.json").read_text().splitlines()]
        records[2]["user_id"] = "u\t2"
        write_lines(yelp_dir / "review.json", records)
        with pytest.raises(MalformedRecord) as caught:
            ingest_yelp(*yelp_files(yelp_dir))
        assert (caught.value.source, caught.value.line_number) == ("review.json", 3)

    @staticmethod
    def replace_b1_with_a_bad_tag(yelp_dir):
        """List b1 twice: its first line holds a bad tag, which its second
        line's tags replace."""
        path = yelp_dir / "business.json"
        path.write_text(json.dumps({"business_id": "b1", "categories": ["Pizza", "Tab\tbed"]})
                        + "\n" + path.read_text(encoding="utf-8"), encoding="utf-8")

    def test_tags_of_a_replaced_business_line_are_not_checked(self, yelp_dir):
        self.replace_b1_with_a_bad_tag(yelp_dir)
        d = ingest_yelp(*yelp_files(yelp_dir))
        assert d.categories.of(d.items.handle("b1")) == frozenset({"Restaurants", "Pizza"})

    def test_a_replaced_tag_is_not_named_for_a_later_bad_id(self, yelp_dir):
        self.replace_b1_with_a_bad_tag(yelp_dir)
        write_lines(yelp_dir / "tip.json", [{"user_id": "u\t1", "business_id": "b1", "likes": 1}])
        with pytest.raises(MalformedRecord) as caught:
            ingest_yelp(*yelp_files(yelp_dir))
        assert (caught.value.source, caught.value.line_number) == ("tip.json", 1)
        assert caught.value.reason == "user_id 'u\\t1' is empty or holds a tab or line break"

    def test_id_on_a_dropped_review_is_not_checked(self, lt_dir):
        (lt_dir / "reviews.txt").write_text(
            LT_LINES + json.dumps({"work": "", "user": "a\tb", "stars": 0}) + "\n",
            encoding="utf-8")
        d = ingest_librarything(lt_dir / "reviews.txt", lt_dir / "edges.txt")
        assert "a\tb" not in d.users


class TestCategoryClosure:
    def test_load_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "closure.txt"
        p.write_text("# heading\nRestaurants\n\n  Pizza  \n", encoding="utf-8")
        assert load_category_closure(p) == {"Restaurants", "Pizza"}

    def test_builtin_closure_is_nonempty(self):
        closure = restaurants_food_closure()
        assert "Restaurants" in closure
        assert "Food" in closure
        assert len(closure) > 100

    def test_builtin_closure_is_the_bundled_file(self):
        from importlib import resources

        bundled = resources.files("trustcf") / "data/restaurants_food_categories.txt"
        with resources.as_file(bundled) as path:
            assert restaurants_food_closure() == load_category_closure(path)


LINE_ENDS = {
    "lf": lambda b: b,
    "crlf": lambda b: b.replace(b"\n", b"\r\n"),
    "cr": lambda b: b.replace(b"\n", b"\r"),
}
# a byte that is not UTF-8, a truncated multibyte character, an encoded surrogate
NOT_UTF8 = {"ff": b"\xff", "truncated": "€".encode()[:2], "surrogate": b"\xed\xa0\x80"}
RAW_FILES = {"business.json": "yelp", "review.json": "yelp", "user.json": "yelp",
             "tip.json": "yelp", "reviews.txt": "lt", "edges.txt": "lt", "closure.txt": "closure"}


def raw_inputs(directory):
    """A Yelp dump, a LibraryThing dump and a category closure under
    ``directory``: each file's path, and a reader of each input."""
    for sub in ("yelp", "lt"):
        (directory / sub).mkdir()
    for path, records in zip(yelp_files(directory / "yelp"), random_yelp_dump(random.Random(3))):
        write_lines(path, records)
    write_librarything(directory / "lt", *random_librarything_dump(random.Random(3)))
    (directory / "closure.txt").write_text("# restaurants\nRestaurants\n  Pizza  # a tag\n\n"
                                           "Food\n", encoding="utf-8")
    paths = {path.name: path for path in directory.rglob("*.*")}
    readers = {
        "yelp": lambda: ingest_yelp(*yelp_files(directory / "yelp")),
        "lt": lambda: ingest_librarything(paths["reviews.txt"], paths["edges.txt"]),
        "closure": lambda: load_category_closure(paths["closure.txt"]),
    }
    return paths, readers


class TestLineEndsAndBadBytes:
    """Raw files read as a stream of lines: ``\\r\\n``, ``\\r`` and ``\\n`` each
    end a line, and a byte that is not UTF-8 is named by the line holding it,
    from the one read of the file."""

    @pytest.mark.parametrize("layout", ["crlf", "cr"])
    def test_line_ends_read_alike(self, tmp_path, layout):
        paths, readers = raw_inputs(tmp_path)
        expected = {name: read() for name, read in readers.items()}
        for path in paths.values():
            path.write_bytes(LINE_ENDS[layout](path.read_bytes()))
        got = {name: read() for name, read in readers.items()}
        assert got["closure"] == expected["closure"] == {"Restaurants", "Pizza", "Food"}
        for name in ("yelp", "lt"):
            assert datasets_equal(got[name], expected[name])
            assert got[name].warnings == expected[name].warnings

    @pytest.mark.usefixtures("each_file_opened_once")
    @pytest.mark.parametrize("bad", NOT_UTF8)
    @pytest.mark.parametrize("layout", LINE_ENDS)
    @pytest.mark.parametrize("name", RAW_FILES)
    def test_bad_byte_names_its_line(self, tmp_path, name, layout, bad):
        paths, readers = raw_inputs(tmp_path)
        path = paths[name]
        lines = path.read_bytes().split(b"\n")[:-1]
        assert len(lines) >= 3
        line = len(lines) // 2 + 1  # a middle line, not the first nor the last
        text = lines[line - 1]
        lines[line - 1] = text[:len(text) // 2] + NOT_UTF8[bad] + text[len(text) // 2:]
        path.write_bytes(LINE_ENDS[layout](b"\n".join(lines) + b"\n"))
        with pytest.raises(MalformedRecord) as caught:
            readers[RAW_FILES[name]]()
        assert str(caught.value) == f"{name}:{line}: not UTF-8 text"

    @pytest.mark.usefixtures("each_file_opened_once")
    @pytest.mark.parametrize("layout", LINE_ENDS)
    def test_bad_byte_beyond_the_first_batch(self, yelp_dir, layout):
        review = {"user_id": "u1", "business_id": "b1", "stars": 4, "text": "é" * 40}
        lines = [json.dumps(review, ensure_ascii=False).encode()] * 3000  # about 300 KB
        lines[2499] = lines[2499].replace(b"\xc3\xa9", b"\xff", 1)
        (yelp_dir / "review.json").write_bytes(LINE_ENDS[layout](b"\n".join(lines) + b"\n"))
        with pytest.raises(MalformedRecord) as caught:
            ingest_yelp(*yelp_files(yelp_dir))
        assert str(caught.value) == "review.json:2500: not UTF-8 text"

    def test_an_earlier_bad_line_is_named_first(self, yelp_dir):
        """Lines are parsed in file order, up to the one holding a bad byte."""
        with open(yelp_dir / "review.json", "ab") as fh:
            fh.write(b"not json\n" + b'{"user_id": "u\xff"}\n')
        with pytest.raises(MalformedRecord) as caught:
            ingest_yelp(*yelp_files(yelp_dir))
        assert (caught.value.source, caught.value.line_number) == ("review.json", 5)
        assert caught.value.reason.startswith("invalid JSON")

    @pytest.mark.parametrize("layout", LINE_ENDS)
    def test_manifest_is_read_once(self, tiny, tmp_path, monkeypatch, layout):
        canonical_save(tiny, tmp_path / "d")
        path = tmp_path / "d" / "manifest.txt"
        lines = path.read_bytes().split(b"\n")
        lines[2] += b"\xff"
        path.write_bytes(LINE_ENDS[layout](b"\n".join(lines)))
        opened = count_reads(monkeypatch, (canonical, "open"), (Path, "read_bytes"),
                             (Path, "read_text"))
        with pytest.raises(MalformedRecord) as caught:
            canonical_load(tmp_path / "d")
        assert str(caught.value) == "manifest.txt:3: not UTF-8 text"
        assert opened == [os.fspath(path)]


class TestCanonicalFormat:
    def test_round_trip_tiny(self, tiny, tmp_path):
        canonical_save(tiny, tmp_path / "out")
        back = canonical_load(tmp_path / "out")
        assert datasets_equal(tiny, back)
        assert back.provenance == tiny.provenance

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(31)
        for trial in range(15):
            d = random_dataset(rng)
            target = tmp_path / f"rt{trial}"
            canonical_save(d, target)
            assert datasets_equal(d, canonical_load(target))

    def test_rendering_is_deterministic(self, tiny):
        assert render_canonical(tiny) == render_canonical(tiny)

    def test_save_is_byte_identical_across_runs(self, tiny, tmp_path):
        canonical_save(tiny, tmp_path / "a")
        canonical_save(tiny, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_feedback_user_survives(self, tmp_path):
        """A user with no feedback at all must not vanish on reload."""
        from trustcf import make_dataset

        d = make_dataset(provenance="synthetic", ratings=[("quiet", "thing", 3.0)])
        canonical_save(d, tmp_path / "q")
        back = canonical_load(tmp_path / "q")
        assert list(back.users) == ["quiet"]
        assert back.feedback.col("review_count")[0] == 0

    def test_untagged_item_survives(self, tmp_path):
        from trustcf import make_dataset

        d = make_dataset(
            provenance="synthetic",
            ratings=[("u", "tagged", 3.0), ("u", "plain", 4.0)],
            categories={"tagged": {"x"}},
        )
        canonical_save(d, tmp_path / "c")
        back = canonical_load(tmp_path / "c")
        assert back.categories.of(back.items.handle("plain")) == frozenset()
        assert back.categories.of(back.items.handle("tagged")) == frozenset({"x"})

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IoFailure):
            canonical_load(tmp_path / "nope")

    def test_missing_member_file(self, tiny, tmp_path):
        canonical_save(tiny, tmp_path / "d")
        (tmp_path / "d" / "ratings.tsv").unlink()
        with pytest.raises(IoFailure):
            canonical_load(tmp_path / "d")

    def test_schema_version_mismatch(self, tiny, tmp_path):
        canonical_save(tiny, tmp_path / "d")
        manifest = tmp_path / "d" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(
            "schema_version=1", "schema_version=999"))
        with pytest.raises(SchemaVersionMismatch):
            canonical_load(tmp_path / "d")

    def test_corrupt_ratings_line(self, tiny, tmp_path):
        canonical_save(tiny, tmp_path / "d")
        ratings = tmp_path / "d" / "ratings.tsv"
        ratings.write_text(ratings.read_text() + "dangling\n")
        with pytest.raises(IoFailure):
            canonical_load(tmp_path / "d")

    @pytest.mark.parametrize("name, bad, message", [
        ("ratings.tsv", "x", "bad rating value 'x'"),
        ("ratings.tsv", "nan", "bad rating value 'nan'"),
        ("ratings.tsv", "inf", "bad rating value 'inf'"),
        ("ratings.tsv", "0.5", "bad rating value '0.5'"),
        ("user_feedback.tsv", "many", "bad count 'many'"),
        ("user_feedback.tsv", "-1", "bad count '-1'"),
        ("review_feedback.tsv", "1.5", "bad count '1.5'"),
        ("review_feedback.tsv", str(2**63), f"bad count '{2**63}'"),
        # a bytes view would drop the trailing NUL and read 4 and 3
        ("ratings.tsv", "4\x00", "bad rating value '4\\x00'"),
        ("user_feedback.tsv", "3\x00", "bad count '3\\x00'"),
    ])
    def test_bad_value_names_file_and_line(self, tiny, tmp_path, name, bad, message):
        canonical_save(tiny, tmp_path / "d")
        path = tmp_path / "d" / name
        lines = path.read_text().splitlines()
        lines[1] = "\t".join(lines[1].split("\t")[:-1] + [bad])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IoFailure) as caught:
            canonical_load(tmp_path / "d")
        assert str(caught.value) == f"{name}:2: {message}"

    @pytest.mark.parametrize("text", [
        "0", "007", "1" * 15, "1" * 16, str(2**63), "+4", "1_0", " 4", "\u0665", "-0", "",
        "4.50", "3.", ".5", "1e0", "3.3333333333333335", "4.00000000000001", "1.2.3",
    ])
    @pytest.mark.parametrize("name, key", [
        ("ratings.tsv", ("alice", "bread")),
        ("user_feedback.tsv", ("alice", "fans")),
        ("review_feedback.tsv", ("alice", "bread", "useful")),
    ])
    def test_value_reads_as_python_reads_its_text(self, tiny, tmp_path, monkeypatch, name, key,
                                                  text):
        """A rating or count of 1 to 15 ASCII digits (a rating with one point
        between two of them) in range is read from its digits; any other text
        takes the per-field path.  Either way the value is Python's ``float``
        or ``int`` of the text, or the error names the field and its line."""
        canonical_save(tiny, tmp_path / "d")
        path = tmp_path / "d" / name
        lines = path.read_text().splitlines()
        assert tuple(lines[1].split("\t")[:-1]) == key
        lines[1] = "\t".join(key + (text,))
        path.write_text("\n".join(lines) + "\n")
        kind, lo, hi, what = ((float, 1.0, 5.0, "bad rating value") if name == "ratings.tsv"
                              else (int, 0, 2**63 - 1, "bad count"))
        try:
            want = kind(text)
        except ValueError:
            want = None
        seen = per_field_reads(monkeypatch)
        if want is None or not lo <= want <= hi:
            with pytest.raises(IoFailure) as caught:
                canonical_load(tmp_path / "d")
            assert str(caught.value) == f"{name}:2: {what} {text!r}"
        else:
            d = canonical_load(tmp_path / "d")
            u = d.users.handle("alice")
            pos = d.ratings.positions([u], [d.items.handle("bread")])[0]
            got = {"ratings.tsv": lambda: d.ratings.value[pos],
                   "user_feedback.tsv": lambda: d.feedback.col("fans")[u],
                   "review_feedback.tsv": lambda: d.review_feedback.col("useful")[pos]}[name]()
            assert type(got.item()) is kind and got.item() == want
        pattern = r"[0-9]+(\.[0-9]+)?" if kind is float else r"[0-9]+"
        digits = re.fullmatch(pattern, text) and len(text.replace(".", "")) <= 15
        assert bool(seen) == (not digits or want is None or not lo <= want <= hi)

    def test_saved_values_are_read_from_their_digits(self, tmp_path, monkeypatch):
        """Every rating and count a save writes takes the digit reader: loading
        saved random datasets and benchmark corpora reads no column one str
        per field."""
        rng = np.random.default_rng(41)
        corpora = [random_dataset(rng) for _ in range(10)] + [
            synth_corpus(*scaled(scale), seed=seed)
            for scale in (EVAL_SCALE, ROUNDTRIP_SCALE) for seed in (1, 7919)]
        seen = per_field_reads(monkeypatch)
        for n, d in enumerate(corpora):
            canonical_save(d, tmp_path / str(n))
            assert datasets_equal(canonical_load(tmp_path / str(n)), d)
        assert seen == []

    @pytest.mark.parametrize("key", ["num_users", "num_items", "num_ratings"])
    def test_manifest_counts_must_match(self, tiny, tmp_path, key):
        canonical_save(tiny, tmp_path / "d")
        manifest = tmp_path / "d" / "manifest.txt"
        text = manifest.read_text()
        start = text.index(f"{key}=")
        end = text.index("\n", start)
        manifest.write_text(text[:start] + f"{key}=99" + text[end:])
        with pytest.raises(IoFailure, match=rf"manifest.txt:\d: {key} is '99'"):
            canonical_load(tmp_path / "d")

    def test_float_ratings_keep_precision(self, tmp_path):
        from trustcf import make_dataset

        d = make_dataset(provenance="synthetic",
                         ratings=[("u", "i", 3.5), ("u", "j", 4.0)])
        canonical_save(d, tmp_path / "f")
        back = canonical_load(tmp_path / "f")
        assert sorted(back.ratings.triples()) == sorted(d.ratings.triples())

    def test_ratings_keep_every_digit(self, tmp_path):
        from trustcf import make_dataset

        values = [4.1234567, 1 + 1 / 3, 4 + 1 / 3, 2.5, 4.0]
        d = make_dataset(provenance="synthetic",
                         ratings=[("u", f"i{n}", v) for n, v in enumerate(values)])
        canonical_save(d, tmp_path / "f")
        assert canonical_load(tmp_path / "f").ratings.value.tolist() == values

    def test_half_star_ratings_render_in_short_form(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            d = random_dataset(rng)
            lines = sorted(
                f"{d.users.external(u)}\t{d.items.external(i)}\t{v:g}"
                for u, i, v in d.ratings.triples()
            )
            assert render_canonical(d)["ratings.tsv"] == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name, extra", [
        # erin's compliments
        ("user_feedback.tsv", [f"erin\tmore\t{2 ** 62}", f"erin\tthx\t{2 ** 62}"]),
        # erin's bread review, which has useful 2
        ("review_feedback.tsv", [f"erin\tbread\tfunny\t{2 ** 62 - 2}",
                                 f"erin\tbread\tcool\t{2 ** 62}"]),
    ], ids=["compliments", "review-totals"])
    def test_counter_sum_beyond_int64_names_file_and_line(self, tiny, tmp_path, name, extra):
        canonical_save(tiny, tmp_path / "d")
        path = tmp_path / "d" / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + extra) + "\n")
        with pytest.raises(IoFailure) as caught:
            canonical_load(tmp_path / "d")
        where, message = str(caught.value).split(": ", 1)
        assert where == f"{name}:{len(lines) + 2}"
        assert message.startswith("the sum ") and "does not fit in int64" in message
        assert message.endswith(repr(tuple(extra[1].split("\t"))))

    @pytest.mark.parametrize("name, extra", [
        ("ratings.tsv", "alice\tapple\t3"),
        ("user_feedback.tsv", "alice\treview_count\t5"),
        ("review_feedback.tsv", "alice\tapple\tuseful\t3"),
        ("review_feedback.tsv", "alice\tapple\tuseful\t0"),
        # rows that add up beyond int64: alice's fans are 8, her apple review's useful 2
        ("user_feedback.tsv", f"alice\tfans\t{2 ** 63 - 8}"),
        ("review_feedback.tsv", f"alice\tapple\tuseful\t{2 ** 63 - 2}"),
    ])
    def test_repeated_key_names_file_and_line(self, tiny, tmp_path, name, extra):
        canonical_save(tiny, tmp_path / "d")
        path = tmp_path / "d" / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [extra]) + "\n")
        key = tuple(extra.split("\t")[:-1])
        with pytest.raises(IoFailure) as caught:
            canonical_load(tmp_path / "d")
        assert str(caught.value) == f"{name}:{len(lines) + 1}: repeated key {key}"

    @pytest.mark.parametrize("at_end", [False, True], ids=["ascending", "appended"])
    @pytest.mark.parametrize("name, extra", [
        ("ratings.tsv", "alice\tapple\t3"),
        ("user_feedback.tsv", "alice\treview_count\t5"),
        ("review_feedback.tsv", "alice\tapple\tuseful\t3"),
    ])
    def test_repeated_key_is_named_from_one_read(self, tiny, tmp_path, monkeypatch, name, extra,
                                                 at_end):
        """The pass that parses a file finds its repeated key, whether the rows
        still ascend (the repeat follows its twin) or not, and names the line
        from the bytes it holds: no file is read twice."""
        canonical_save(tiny, tmp_path / "d")
        path = tmp_path / "d" / name
        lines = path.read_text().splitlines()
        key = tuple(extra.split("\t")[:-1])
        at = len(lines) if at_end else [tuple(n.split("\t")[:-1]) for n in lines].index(key) + 1
        path.write_text("\n".join(lines[:at] + [extra] + lines[at:]) + "\n")
        opened = count_reads(monkeypatch, (Path, "read_bytes"))
        with pytest.raises(IoFailure) as caught:
            canonical_load(tmp_path / "d")
        assert str(caught.value) == f"{name}:{at + 1}: repeated key {key}"
        assert Counter(opened)[os.fspath(path)] == 1
        assert max(Counter(opened).values()) == 1

    def test_errors_come_in_the_order_the_files_are_read(self, tiny, tmp_path):
        """A repeated rating is found while ratings.tsv is parsed, before
        user_feedback.tsv, whose bad count is never reached."""
        canonical_save(tiny, tmp_path / "d")
        ratings = tmp_path / "d" / "ratings.tsv"
        ratings.write_text(ratings.read_text() + "alice\tapple\t3\n")
        feedback = tmp_path / "d" / "user_feedback.tsv"
        feedback.write_text("alice\tfans\tmany\n" + feedback.read_text())
        with pytest.raises(IoFailure) as caught:
            canonical_load(tmp_path / "d")
        lines = len(ratings.read_text().splitlines())
        assert str(caught.value) == f"ratings.tsv:{lines}: repeated key ('alice', 'apple')"

    @pytest.mark.parametrize("name, extra, message", [
        ("user_feedback.tsv", "erin\tcharm\t1", "unknown counter 'charm'"),
        ("review_feedback.tsv", "erin\tbread\tcharm\t1", "unknown counter 'charm'"),
        ("review_feedback.tsv", "erin\tapple\tuseful\t1",
         "review of an unrated pair ('erin', 'apple')"),
    ])
    def test_inconsistent_row_names_file_and_line(self, tiny, tmp_path, name, extra, message):
        canonical_save(tiny, tmp_path / "d")
        path = tmp_path / "d" / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [extra]) + "\n")
        with pytest.raises(IoFailure) as caught:
            canonical_load(tmp_path / "d")
        assert str(caught.value) == f"{name}:{len(lines) + 1}: {message}"

    @pytest.mark.parametrize("old, new, message", [
        ("provenance=synthetic", "provenance=netflix",
         "manifest.txt:2: unknown provenance 'netflix'"),
        ("schema_version=1", "schema_version=", "manifest.txt:1: schema version '', not 1"),
        ("schema_version=1", "schema", "manifest.txt:1: malformed manifest line 'schema'"),
        ("schema_version=1", "schema\tversion=1", "manifest.txt:1: malformed manifest line"),
        ("schema_version=1\n", "", "manifest.txt: no schema_version line"),
        ("num_users=5", "num_users=3", "manifest.txt:3: num_users is '3', but the files hold 5"),
        ("num_items=4", "num_items=9", "manifest.txt:4: num_items is '9', but the files hold 4"),
        ("num_ratings=13", "num_ratings=1",
         "manifest.txt:5: num_ratings is '1', but the files hold 13"),
        ("provenance=synthetic", "provenance=yelp\nprovenance=synthetic",
         "manifest.txt:3: repeated key 'provenance'"),
        ("num_users=5", "num_users=999\nnum_users=5", "manifest.txt:4: repeated key 'num_users'"),
    ])
    def test_bad_manifest_names_file_and_line(self, tiny, tmp_path, old, new, message):
        canonical_save(tiny, tmp_path / "d")
        manifest = tmp_path / "d" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(old, new))
        with pytest.raises(TrustcfError) as caught:
            canonical_load(tmp_path / "d")
        assert str(caught.value).startswith(message)

    @pytest.mark.parametrize("item, tag, shown", [
        ("x\ny", "t", "item id 'x\\ny'"),
        ("x", "a\tb", "tag 'a\\tb'"),
        ("x", "", "tag ''"),
        ("x\ud800", "t", "item id 'x\\ud800'"),
        ("x", "\udcff", "tag '\\udcff'"),
    ])
    def test_save_rejects_a_field_that_would_not_load(self, tiny, tmp_path, item, tag, shown):
        from trustcf import make_dataset

        target = tmp_path / "d"
        canonical_save(tiny, target)
        before = {p.name: p.read_bytes() for p in target.iterdir()}
        d = make_dataset(provenance="synthetic", ratings=[("u", item, 3.0)],
                         categories={item: {tag}})
        with pytest.raises(IoFailure) as caught:
            canonical_save(d, target)
        assert str(caught.value).startswith(f"cannot save {shown}: ")
        assert {p.name: p.read_bytes() for p in target.iterdir()} == before
        with pytest.raises(IoFailure):
            canonical_save(d, tmp_path / "new")
        assert not (tmp_path / "new").exists()

    def test_empty_ids_round_trip(self, tmp_path):
        from trustcf import make_dataset

        d = make_dataset(provenance="synthetic", ratings=[("", "x", 3.0), ("u", "", 4.0)],
                         categories={"x": {"t"}})
        canonical_save(d, tmp_path / "d")
        assert datasets_equal(canonical_load(tmp_path / "d"), d)

    @pytest.mark.parametrize("name, extra", [
        ("user_feedback.tsv", "erin\tfans\t0"),
        ("review_feedback.tsv", "erin\tbread\tfunny\t0"),
    ])
    def test_zero_row_without_repeat_loads(self, tiny, tmp_path, name, extra):
        canonical_save(tiny, tmp_path / "d")
        path = tmp_path / "d" / name
        path.write_text(path.read_text() + extra + "\n")
        assert datasets_equal(canonical_load(tmp_path / "d"), tiny)

    def test_odd_ids_save_in_sorted_line_order(self, tmp_path):
        """Ids below the tab, prefixes of one another, empty and non-BMP: a
        line starting "a\\x01\\t" sorts before one starting "a\\t", although
        "a" is the smaller id.  ratings.tsv, friends.tsv and
        review_feedback.tsv hold their lines in ``sorted`` order, the other
        two files are in handle order, and a reload saves the same bytes."""
        from trustcf import make_dataset

        users = ["", "\x01", "a", "a\x01", "a\x02b", "a\x08", "a\x08\x08", "ab", "b\x05",
                 "b\x05\x03", "\U0001F600", "\U0001F600\x04", "\U0001F600a"]
        items = ["", "\x07", "i", "i\x01", "i\x06x", "ii", "\U00010348", "\U00010348\x02"]
        ratings = [(u, i, 1.0 + (n * 7 + m * 3) % 9 / 2) for n, u in enumerate(users)
                   for m, i in enumerate(items) if (n + 2 * m) % 3]
        d = make_dataset(
            provenance="synthetic",
            ratings=ratings,
            friends=[(users[n], users[(5 * n + 3) % len(users)]) for n in range(len(users))],
            user_counters={"fans": {u: n for n, u in enumerate(users) if n % 3},
                           "thx": {"a": 2, "a\x01": 3, "": 4}},
            review_counters={name: {(u, i): 1 + (len(u) + k) % 3 for u, i, _ in ratings[k::3]}
                             for k, name in enumerate(("useful", "cool", "funny"))},
            categories={"": {"t\x01", "t"}, "i": {"\U0001F600"}, "\x07": {"t"}},
        )
        files = render_canonical(d)
        for name in ("ratings.tsv", "friends.tsv", "review_feedback.tsv"):
            lines = files[name].split("\n")
            assert lines.pop() == "" and lines == sorted(lines)
        # the order of sorted lines is not the order of the ids
        lines = files["ratings.tsv"].split("\n")[:-1]
        first = [d.users.handle(line.split("\t")[0]) for line in lines]
        assert first != sorted(first)
        for name, ids in (("user_feedback.tsv", d.users), ("item_categories.tsv", d.items)):
            rows = [line.split("\t") for line in files[name].split("\n")[:-1]]
            keys = [(ids.handle(row[0]), row[1]) for row in rows]
            assert keys == sorted(keys) and {row[0] for row in rows} == set(ids)

        canonical_save(d, tmp_path / "a")
        canonical_save(canonical_load(tmp_path / "a"), tmp_path / "b")
        saved = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        assert saved == {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
        assert {name: data.decode() for name, data in saved.items()} == files

    def test_odd_ids_and_layouts_round_trip(self, tmp_path):
        """Ids with NUL and control bytes, prefixes of each other, non-ASCII,
        empty or 5,000 characters long; files with CRLF or CR line ends, a
        last line without a newline and blank lines; a rating and a count
        that only Python's own conversion reads.  The reload has the same
        handles and values as the dataset saved."""
        from trustcf import make_dataset

        # friends.tsv holds only the short ids, so that each width of view meets
        # NUL bytes and prefixes: up to 8 bytes, up to 256 and longer
        short = ["", "\x00", "a", "a\x00", "a\x00\x00", "a\x00b", "a\x01", "ab", "é", "日本"]
        users = short + ["abcdefghi", "abcdefghi\x00", "abcdefghi\x00\x00", "abcdefghij",
                         "L" * 5000, "u"]
        items = ["", "\x01", "i", "i\x00", "ii", "iï", "item-0000", "item-0000\x00", "item-00001",
                 "x" * 300]
        ratings = [(u, i, 1.0 + (3 * n + m) % 9 / 2)
                   for n, u in enumerate(users) for m, i in enumerate(items) if (n + m) % 3]
        ratings.append(("a", "ii", 5.0))
        ratings = list({(u, i): (u, i, v) for u, i, v in ratings}.values())
        d = make_dataset(
            provenance="synthetic",
            ratings=ratings,
            friends=[(short[n], short[(3 * n + 1) % len(short)]) for n in range(len(short))],
            user_counters={"fans": {u: n for n, u in enumerate(users) if n % 2},
                           "thx": {"a\x00": 10, "L" * 5000: 3}},
            review_counters={"useful": {(u, i): 1 + len(u) % 4 for u, i, _ in ratings[::2]}},
            categories={"": {"t", "t\x00"}, "i\x00": {"ü"}, "x" * 300: {"t", "\x00"}},
            extra_items=["unrated\x00"],
        )
        target = tmp_path / "d"
        canonical_save(d, target)

        def edit(name, change):
            path = target / name
            path.write_bytes(change(path.read_bytes()))

        edit("ratings.tsv", lambda b: b.replace(b"a\tii\t5\n", "a\tii\t٥\n".encode())
             .replace(b"\n", b"\r\n"))
        edit("friends.tsv", lambda b: b.replace(b"\n", b"\r").rstrip(b"\r"))
        edit("user_feedback.tsv", lambda b: b"\n" + b.replace(b"\tthx\t10\n", b"\tthx\t1_0\n\n"))
        edit("review_feedback.tsv", lambda b: b.rstrip(b"\n"))
        edit("item_categories.tsv", lambda b: b.replace(b"\n", b"\n\r\n"))
        assert "٥".encode() in (target / "ratings.tsv").read_bytes()
        assert b"1_0" in (target / "user_feedback.tsv").read_bytes()

        back = canonical_load(target)
        assert datasets_equal(back, d)
        assert list(back.users) == list(d.users) and list(back.items) == list(d.items)
        assert back.categories.names == d.categories.names
        for got, want in [
            (back.ratings.user_idx, d.ratings.user_idx),
            (back.ratings.item_idx, d.ratings.item_idx),
            (back.ratings.value, d.ratings.value),
            (back.social.edge_array(), d.social.edge_array()),
            (back.categories.keys, d.categories.keys),
        ] + [(back.feedback.col(n), d.feedback.col(n)) for n in ("fans", "thx")] + [
            (back.review_feedback.col("useful"), d.review_feedback.col("useful")),
        ]:
            np.testing.assert_array_equal(got, want)

    def test_wrong_field_count_names_line(self, tiny, tmp_path):
        canonical_save(tiny, tmp_path / "d")
        path = tmp_path / "d" / "friends.tsv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", lines[1] + "\tx"]) + "\n")
        with pytest.raises(IoFailure, match="friends.tsv:3: expected 2 fields, got 3"):
            canonical_load(tmp_path / "d")

    def test_blank_lines_are_skipped(self, tiny, tmp_path):
        canonical_save(tiny, tmp_path / "d")
        for name in ("ratings.tsv", "friends.tsv", "review_feedback.tsv"):
            path = tmp_path / "d" / name
            path.write_text("\n" + path.read_text().replace("\n", "\n\n", 2))
        assert datasets_equal(canonical_load(tmp_path / "d"), tiny)

    # each error: the file, its appended lines (the last is the one named) and
    # the message after "file:line: ", from the named line's fields
    LOAD_ERRORS = {
        "field-count": ("friends.tsv", ["alice\tzed\tx"], lambda f: "expected 2 fields, got 3"),
        "rating": ("ratings.tsv", ["alice\tzed\tx"], lambda f: "bad rating value 'x'"),
        "count": ("user_feedback.tsv", ["alice\tfans\tmany"], lambda f: "bad count 'many'"),
        "counter": ("user_feedback.tsv", ["erin\tcharm\t1"], lambda f: "unknown counter 'charm'"),
        "rating-repeat": ("ratings.tsv", ["alice\tapple\t3"], lambda f: f"repeated key {f[:-1]}"),
        "counter-repeat": ("review_feedback.tsv", ["alice\tapple\tuseful\t3"],
                           lambda f: f"repeated key {f[:-1]}"),
        "unrated": ("review_feedback.tsv", ["erin\tapple\tuseful\t1"],
                    lambda f: f"review of an unrated pair {f[:2]}"),
        "sum": ("user_feedback.tsv", [f"erin\tmore\t{2 ** 62}", f"erin\tthx\t{2 ** 62}"],
                lambda f: f"the sum more+thx+gw does not fit in int64 {f}"),
        "utf8": ("ratings.tsv", ["alice\tz\udcff\t3"], lambda f: "not UTF-8 text"),
    }
    LAYOUTS = {
        "lf": lambda b: b,
        "crlf": lambda b: b.replace(b"\n", b"\r\n"),
        "cr": lambda b: b.replace(b"\n", b"\r"),
        "blank": lambda b: b"\n\r\n" + b.replace(b"\n", b"\n\n"),
        "unterminated": lambda b: b.rstrip(b"\n"),
        "nul-id": lambda b: b.replace(b"alice", b"al\x00ice"),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kind", LOAD_ERRORS)
    def test_load_error_names_the_line_text_mode_counts(self, tiny, tmp_path, kind, layout):
        """Every kind of canonical load error names the line of the bad row
        that reading the file as text counts, whatever its line ends, blank
        lines, final newline or NUL bytes."""
        name, extra, message = self.LOAD_ERRORS[kind]
        change = self.LAYOUTS[layout]
        canonical_save(tiny, tmp_path / "d")
        for path in (tmp_path / "d").glob("*.tsv"):
            data = path.read_bytes()
            if path.name == name:
                data += "\n".join(extra + [""]).encode("utf-8", "surrogateescape")
            path.write_bytes(change(data) if path.name == name or layout == "nul-id" else data)
        named = change(extra[-1].encode("utf-8", "surrogateescape") + b"\n").strip(b"\r\n")
        named = named.decode("utf-8", "surrogateescape")
        with open(tmp_path / "d" / name, encoding="utf-8", errors="surrogateescape") as handle:
            lines = [line.rstrip("\n") for line in handle]
        line = lines.index(named) + 1
        assert layout != "blank" or line > len([n for n in lines if n])
        with pytest.raises((IoFailure, MalformedRecord)) as caught:
            canonical_load(tmp_path / "d")
        fields = tuple(named.split("\t"))
        assert str(caught.value) == f"{name}:{line}: {message(fields)}"

    def test_handles_out_of_id_order_are_rejected(self, tiny):
        """Rendering writes in handle order, which is id order: interners in
        any other order cannot be built."""
        order = [3, 0, 4, 2, 1]  # new handle n would be tiny's user order[n]
        item_order = [2, 0, 3, 1]  # the same for items
        for interner, new_order in ((tiny.users, order), (tiny.items, item_order)):
            assert list(interner) == sorted(interner)
            with pytest.raises(ValueError, match="strictly ascending"):
                Interner(interner.externals(new_order))
        files = render_canonical(tiny)
        for name in ("ratings.tsv", "friends.tsv", "review_feedback.tsv"):
            assert files[name].splitlines() == sorted(files[name].splitlines())
        listed = [line.split("\t")[0] for line in files["item_categories.tsv"].splitlines()]
        assert list(dict.fromkeys(listed)) == list(tiny.items)

    def test_interrupted_save_does_not_load(self, tmp_path, monkeypatch):
        target = tmp_path / "d"
        canonical_save(random_dataset(np.random.default_rng(5)), target)
        real_replace = os.replace
        calls = []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == 3:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(IoFailure, match="disk full"):
            canonical_save(build_tiny(), target)
        monkeypatch.undo()
        with pytest.raises(IoFailure, match="missing manifest"):
            canonical_load(target)
        assert [p.name for p in target.iterdir() if p.name.startswith(".")] == []
        # a complete save over the wreck loads again
        canonical_save(build_tiny(), target)
        assert datasets_equal(canonical_load(target), build_tiny())


# -- oracle: raw records rendered by tests/reference.py -----------------------

TAG_POOL = ("Food", "Pizza", "Bars", "Auto Repair", "Café")


def random_yelp_dump(rnd):
    """Raw Yelp records covering every quirk the reader normalizes."""
    users = [f"u{n}" for n in range(rnd.randint(1, 10))] + ["Ü 7"]
    items = [f"b{n}" for n in range(rnd.randint(1, 8))]

    def listish(values):
        form = rnd.randrange(4)
        if form == 0:
            return list(values)
        if form == 1:
            return ", ".join(list(values) + ["None", " "]) if values else rnd.choice(["None", ""])
        if form == 2:
            return [f" {v} " for v in values] + [""]
        return None if not values else ",".join(values)

    businesses = [
        {"business_id": b, "categories": listish(rnd.sample(TAG_POOL, rnd.randint(0, 3)))}
        for b in items + ["b-unrated"]
        if rnd.random() < 0.85
    ]
    dates = ("2012-01-01", "2013-06-30", "", None)
    reviews = []
    for _ in range(rnd.randint(0, 25)):
        record = {"user_id": rnd.choice(users), "business_id": rnd.choice(items),
                  "stars": rnd.choice((1, 1.5, 2.0, 3, 4.5, 5)), "date": rnd.choice(dates)}
        votes = {name: rnd.randint(-1, 5) for name in ("useful", "funny", "cool")
                 if rnd.random() < 0.8}
        if rnd.random() < 0.5:
            record["votes"] = votes
        else:
            record.update(votes)
        reviews.append(record)
    for record in rnd.sample(reviews, min(len(reviews), 6)):
        # a duplicate pair, its date equal to the first or not, before or after it
        again = dict(record, stars=rnd.choice((1, 3, 5)),
                     date=rnd.choice((record["date"],) + dates), useful=rnd.randint(0, 9))
        reviews.insert(rnd.randint(0, len(reviews)), again)

    profiles = []
    for u in users + ["u-lurker"]:
        if rnd.random() < 0.3:
            continue
        friends = rnd.sample(users + ["u-friend-only", u], rnd.randint(0, 4))
        elite = [str(2005 + y) for y in range(rnd.randint(0, 3))]
        profile = {"user_id": u, "elite": listish(elite), "friends": listish(friends)}
        for name in ("compliment_more", "compliment_note", "compliment_writer", "fans"):
            if rnd.random() < 0.8:
                profile[name] = rnd.randint(-1, 30)
        profiles.append(profile)
    tips = []
    for _ in range(rnd.randint(0, 8)):
        tip = {"user_id": rnd.choice(users + ["u-tipper"]), "business_id": rnd.choice(items)}
        if rnd.random() < 0.5:
            tip["likes"] = rnd.randint(0, 4)
        elif rnd.random() < 0.8:
            tip["compliment_count"] = rnd.randint(-1, 4)
        tips.append(tip)
    return businesses, reviews, profiles, tips


def random_librarything_dump(rnd):
    users = [f"u{n}" for n in range(rnd.randint(1, 8))]
    works = [f"w{n}" for n in range(rnd.randint(1, 6))]
    reviews = []
    for _ in range(rnd.randint(0, 25)):
        record = {"user": rnd.choice(users), "work": rnd.choice(works),
                  "stars": rnd.choice((None, 0, 0.5, 1, 2.5, 4, 5.0, 6)),
                  "unixtime": rnd.choice((1300000000, 1300000100, None)),
                  "nhelpful": rnd.choice((0, 1, 3, None, -2))}
        for key in ("stars", "unixtime", "nhelpful"):
            if rnd.random() < 0.1:
                del record[key]
        reviews.append(record)
    pairs = [(rnd.choice(users + ["f-only"]), rnd.choice(users)) for _ in range(rnd.randint(0, 8))]
    return reviews, pairs


def write_librarything(directory, reviews, pairs):
    with open(directory / "reviews.txt", "w", encoding="utf-8") as fh:
        for n, record in enumerate(reviews):
            body = json.dumps(record) if n % 2 else repr(record)
            prefix = f"{record['user']} https://example.invalid/x " if n % 3 else ""
            fh.write(prefix + body + "\n")
    with open(directory / "edges.txt", "w", encoding="utf-8") as fh:
        for n, (a, b) in enumerate(pairs):
            fh.write(f"{a}{' ' if n % 2 else chr(9)}{b}\n\n")


class TestIngestOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_yelp_matches_reference(self, tmp_path, seed):
        businesses, reviews, profiles, tips = random_yelp_dump(random.Random(seed))
        files = yelp_files(tmp_path)
        for path, records in zip(files, (businesses, reviews, profiles, tips)):
            write_lines(path, records)
        d = ingest_yelp(*files)
        expected, duplicates = reference.naive_yelp_canonical(
            businesses, reviews, profiles, tips)
        assert render_canonical(d) == expected
        assert d.warnings == IngestWarnings(duplicate_ratings=duplicates)
        canonical_save(d, tmp_path / "out")
        assert render_canonical(canonical_load(tmp_path / "out")) == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_librarything_matches_reference(self, tmp_path, seed):
        reviews, pairs = random_librarything_dump(random.Random(seed))
        write_librarything(tmp_path, reviews, pairs)
        d = ingest_librarything(tmp_path / "reviews.txt", tmp_path / "edges.txt")
        expected, duplicates, dropped = reference.naive_librarything_canonical(reviews, pairs)
        assert render_canonical(d) == expected
        assert d.warnings == IngestWarnings(duplicate_ratings=duplicates, dropped_unrated=dropped)
        canonical_save(d, tmp_path / "out")
        assert render_canonical(canonical_load(tmp_path / "out")) == expected
