"""Raw-file ingestion and the canonical on-disk format."""

from __future__ import annotations

import json

import numpy as np
import pytest

from trustcf import canonical_load, canonical_save, ingest_librarything, ingest_yelp
from trustcf.canonical import datasets_equal, render_canonical
from trustcf.errors import IoFailure, MalformedRecord, SchemaVersionMismatch
from trustcf.ingest import load_category_closure, restaurants_food_closure

from conftest import random_dataset


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
        ("user_feedback.tsv", "many", "bad count 'many'"),
        ("review_feedback.tsv", "1.5", "bad count '1.5'"),
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
