"""Raw-file ingestion and the canonical on-disk format."""

from __future__ import annotations

import dataclasses
import json
import os
import random

import numpy as np
import pytest

from trustcf import canonical_load, canonical_save, ingest_librarything, ingest_yelp
from trustcf.canonical import datasets_equal, render_canonical
from trustcf.dataset import (
    FeedbackTable,
    IngestWarnings,
    Interner,
    RatingStore,
    ReviewFeedback,
)
from trustcf.social import SocialGraph
from trustcf.errors import IoFailure, MalformedRecord, SchemaVersionMismatch
from trustcf.ingest import load_category_closure, restaurants_food_closure

import reference
from conftest import build_tiny, random_dataset


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


def yelp_files(directory):
    return [directory / name for name in ("business.json", "review.json", "user.json", "tip.json")]


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

    @pytest.mark.parametrize("key", ["num_users", "num_items", "num_ratings"])
    def test_manifest_counts_must_match(self, tiny, tmp_path, key):
        canonical_save(tiny, tmp_path / "d")
        manifest = tmp_path / "d" / "manifest.txt"
        text = manifest.read_text()
        start = text.index(f"{key}=")
        end = text.index("\n", start)
        manifest.write_text(text[:start] + f"{key}=99" + text[end:])
        with pytest.raises(IoFailure, match=f"manifest.txt: {key} is '99'"):
            canonical_load(tmp_path / "d")

    def test_float_ratings_keep_precision(self, tmp_path):
        from trustcf import make_dataset

        d = make_dataset(provenance="synthetic",
                         ratings=[("u", "i", 3.5), ("u", "j", 4.0)])
        canonical_save(d, tmp_path / "f")
        back = canonical_load(tmp_path / "f")
        assert sorted(back.ratings.triples()) == sorted(d.ratings.triples())

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

    def test_rendering_orders_by_external_id(self, tiny):
        """Handles in any order render as when interned sorted."""
        order = [3, 0, 4, 2, 1]  # new handle n is tiny's user order[n]
        back = np.argsort(order)
        store = tiny.ratings
        ratings = RatingStore(tiny.num_users, tiny.num_items, back[store.user_idx],
                              store.item_idx, store.value)
        # the store keeps (user, item) order; map review counters along with it
        moved = np.lexsort((store.item_idx, back[store.user_idx]))
        d = dataclasses.replace(
            tiny,
            users=Interner(tiny.users.externals(order)),
            ratings=ratings,
            social=SocialGraph(tiny.num_users, back[np.column_stack(tiny.social.edge_array())]),
            feedback=FeedbackTable(tiny.num_users, {
                name: tiny.feedback.col(name)[order] for name in tiny.feedback.present()}),
            review_feedback=ReviewFeedback(ratings, {
                name: tiny.review_feedback.col(name)[moved]
                for name in tiny.review_feedback.present()}),
        )
        assert list(d.users) != sorted(d.users)
        assert render_canonical(d) == render_canonical(tiny)

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
