"""End-to-end command-line behavior, including exit codes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from trustcf import canonical, canonical_load, canonical_save
from trustcf.cli import _build_config, main, parse_spec, UsageError

from conftest import build_tiny
from test_ingest import LINE_ENDS, count_reads, write_lines


@pytest.fixture
def canonical_dir(tmp_path):
    target = tmp_path / "data"
    canonical_save(build_tiny(), target)
    return target


def write_spec(path, dataset, out, *lines):
    body = [f"dataset={dataset}", f"out={out}", *lines]
    path.write_text("\n".join(body) + "\n", encoding="utf-8")
    return path


BASE_SPEC = (
    "config=U2UCF",
    "config=MTR",
    "beta=0.1",
    "folds=3",
    "k=2",
    "n=10",
    "seed=5",
)


class TestSpecParsing:
    def test_defaults(self, tmp_path, canonical_dir):
        spec_path = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR")
        spec = parse_spec(spec_path)
        assert spec.configs == ["MTR"]
        assert spec.betas == [0.1]
        assert (spec.folds, spec.k, spec.neighbor_count) == (10, 10, 50)
        assert (spec.seed, spec.tau, spec.threads) == (17, 4.0, 1)

    def test_comments_and_repeats(self, tmp_path):
        p = tmp_path / "exp.spec"
        p.write_text(
            "# experiment\n"
            "dataset=d\nout=o\n"
            "config=U2UCF  # baseline\n"
            "config=MTR\n"
            "beta=0.0\nbeta=0.5\n",
            encoding="utf-8",
        )
        spec = parse_spec(p)
        assert spec.configs == ["U2UCF", "MTR"]
        assert spec.betas == [0.0, 0.5]

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_only_a_newline_ends_a_line(self, tmp_path, char):
        """A character that str.splitlines breaks at stays in its line: text
        after it in a comment is comment, and later lines keep the number an
        editor shows."""
        p = tmp_path / "exp.spec"
        p.write_text(f"dataset=d\nout=o\nconfig=U2UCF # a note{char}folds=1\n", encoding="utf-8")
        spec = parse_spec(p)
        assert (spec.configs, spec.folds) == (["U2UCF"], 10)
        p.write_text(p.read_text(encoding="utf-8") + "bogus=1\n", encoding="utf-8")
        with pytest.raises(UsageError) as caught:
            parse_spec(p)
        assert str(caught.value).startswith(f"{p}:4: unknown key 'bogus'")

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "exp.spec"
        p.write_text("dataset=d\nout=o\nconfig=MTR\nbogus=1\n")
        with pytest.raises(UsageError, match="bogus"):
            parse_spec(p)

    def test_singleton_keys_enforced(self, tmp_path):
        p = tmp_path / "exp.spec"
        p.write_text("dataset=d\ndataset=e\nout=o\nconfig=MTR\n")
        with pytest.raises(UsageError, match="more than once"):
            parse_spec(p)

    def test_requires_dataset_out_and_config(self, tmp_path):
        p = tmp_path / "exp.spec"
        p.write_text("out=o\nconfig=MTR\n")
        with pytest.raises(UsageError, match="dataset"):
            parse_spec(p)
        p.write_text("dataset=d\nout=o\n")
        with pytest.raises(UsageError, match="config"):
            parse_spec(p)

    def test_beta_range(self, tmp_path):
        p = tmp_path / "exp.spec"
        p.write_text("dataset=d\nout=o\nconfig=MTR\nbeta=1.5\n")
        with pytest.raises(UsageError, match="beta"):
            parse_spec(p)


class TestEval:
    def test_end_to_end(self, tmp_path, canonical_dir, capsys):
        out = tmp_path / "out"
        spec = write_spec(tmp_path / "exp.spec", canonical_dir, out, *BASE_SPEC)
        assert main(["eval", "--spec", str(spec)]) == 0

        report = (out / "report.tsv").read_text()
        lines = report.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("U2UCF\t1.00")
        assert lines[2].startswith("MTR\t0.10")

        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 5
        assert summary["num_folds"] == 3
        assert capsys.readouterr().out.startswith("config\t")

    def test_reruns_are_byte_identical(self, tmp_path, canonical_dir):
        out = tmp_path / "out"
        spec = write_spec(tmp_path / "exp.spec", canonical_dir, out, *BASE_SPEC)
        assert main(["eval", "--spec", str(spec)]) == 0
        first = (out / "report.tsv").read_bytes()
        assert main(["eval", "--spec", str(spec)]) == 0
        assert (out / "report.tsv").read_bytes() == first

    def test_seed_override(self, tmp_path, canonical_dir):
        out = tmp_path / "out"
        spec = write_spec(tmp_path / "exp.spec", canonical_dir, out, *BASE_SPEC)
        assert main(["eval", "--spec", str(spec), "--seed", "99"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 99

    def test_threads_flag_matches_serial(self, tmp_path, canonical_dir):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        spec_a = write_spec(tmp_path / "a.spec", canonical_dir, out_a, *BASE_SPEC)
        spec_b = write_spec(tmp_path / "b.spec", canonical_dir, out_b, *BASE_SPEC)
        assert main(["eval", "--spec", str(spec_a)]) == 0
        assert main(["eval", "--spec", str(spec_b), "--threads", "2"]) == 0
        assert (out_a / "report.tsv").read_text() == (out_b / "report.tsv").read_text()

    def test_inline_config(self, tmp_path, canonical_dir):
        out = tmp_path / "out"
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, out,
            "config=custom;sigma=pearson;weights=fb:1.0,frev:0.5;relmode=none",
            "folds=3",
        )
        assert main(["eval", "--spec", str(spec)]) == 0
        report = (out / "report.tsv").read_text()
        assert report.strip().split("\n")[1].startswith("custom\t0.10")

    def test_unknown_config_is_usage_error(self, tmp_path, canonical_dir, capsys):
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR-XYZ")
        assert main(["eval", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert "U2UCF" in err and "MTRTrust2" in err

    def test_inline_config_skips_empty_fragments(self):
        plain = _build_config("custom;sigma=pearson;weights=fb:1,frev:0.5", 0.1, 50)
        assert _build_config("custom;;sigma=pearson; ;weights=fb:1,,frev:0.5,", 0.1, 50) == plain

    def test_inline_config_without_sigma(self, tmp_path, canonical_dir):
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out",
            "config=custom;weights=fb:1.0")
        assert main(["eval", "--spec", str(spec)]) == 1

    def test_inline_config_unknown_facet(self, tmp_path, canonical_dir):
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out",
            "config=custom;sigma=pearson;weights=charisma:1.0")
        assert main(["eval", "--spec", str(spec)]) == 1

    def test_missing_dataset_directory(self, tmp_path):
        spec = write_spec(
            tmp_path / "exp.spec", tmp_path / "absent", tmp_path / "out",
            "config=MTR")
        assert main(["eval", "--spec", str(spec)]) == 2

    def test_manifest_count_mismatch(self, tmp_path, canonical_dir, capsys):
        manifest = canonical_dir / "manifest.txt"
        manifest.write_text(
            manifest.read_text().replace("num_ratings=13", "num_ratings=99"))
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR")
        assert main(["eval", "--spec", str(spec)]) == 2
        assert "manifest.txt:5: num_ratings is '99'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "0.5"])
    def test_bad_rating_value(self, tmp_path, canonical_dir, capsys, bad):
        ratings = canonical_dir / "ratings.tsv"
        ratings.write_text(
            ratings.read_text().replace("alice\tbread\t2\n", f"alice\tbread\t{bad}\n"))
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR")
        assert main(["eval", "--spec", str(spec)]) == 2
        assert f"ratings.tsv:2: bad rating value '{bad}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_counter_row(self, tmp_path, canonical_dir, capsys):
        path = canonical_dir / "user_feedback.tsv"
        path.write_text(path.read_text() + "alice\treview_count\t5\n")
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR")
        assert main(["eval", "--spec", str(spec)]) == 2
        assert "user_feedback.tsv:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_counter_sum_beyond_int64(self, tmp_path, canonical_dir, capsys):
        path = canonical_dir / "user_feedback.tsv"
        path.write_text(path.read_text() + f"erin\tmore\t{2 ** 62}\nerin\tgw\t{2 ** 62}\n")
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR")
        assert main(["eval", "--spec", str(spec)]) == 2
        assert "user_feedback.tsv:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", [
        "manifest.txt", "ratings.tsv", "friends.tsv", "user_feedback.tsv",
        "review_feedback.tsv", "item_categories.tsv",
    ])
    def test_undecodable_file_names_file_and_line(self, tmp_path, canonical_dir, capsys, name):
        path = canonical_dir / name
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"\xff" + lines[1]
        path.write_bytes(b"\n".join(lines))
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR")
        assert main(["eval", "--spec", str(spec)]) == 2
        assert f"{name}:2: not UTF-8 text" in capsys.readouterr().err

    def test_undecodable_spec_is_usage_error(self, tmp_path, canonical_dir, capsys):
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR")
        spec.write_bytes(spec.read_bytes() + b"# \xff\n")
        assert main(["eval", "--spec", str(spec)]) == 1
        assert "exp.spec:4: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("layout", LINE_ENDS)
    def test_non_utf8_spec_is_read_once(self, tmp_path, monkeypatch, layout):
        spec = write_spec(tmp_path / "exp.spec", tmp_path / "d", tmp_path / "out", "config=MTR")
        spec.write_bytes(LINE_ENDS[layout](spec.read_bytes() + b"# \xff\nk=2\n"))
        opened = count_reads(monkeypatch, (canonical, "open"), (Path, "read_bytes"),
                             (Path, "read_text"))
        with pytest.raises(UsageError) as caught:
            parse_spec(spec)
        assert str(caught.value) == "exp.spec:4: not UTF-8 text"
        assert opened == [os.fspath(spec)]

    def test_missing_spec_file(self, tmp_path):
        assert main(["eval", "--spec", str(tmp_path / "none.spec")]) == 1

    @pytest.mark.parametrize("key, line", [("dataset", 1), ("out", 2)])
    def test_nul_in_path_is_usage_error(self, tmp_path, canonical_dir, capsys, monkeypatch,
                                        key, line):
        import trustcf.cli as cli

        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR")
        spec.write_text(spec.read_text().replace(f"{key}=", f"{key}=x\0"))
        # rejected before any evaluation runs
        monkeypatch.setattr(cli, "run_experiment", None)
        assert main(["eval", "--spec", str(spec)]) == 1
        assert f"exp.spec:{line}: {key} holds a NUL byte" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "folds=x", "k=0", "beta=2", "tau=warm", "config=MTR-XYZ", "config=X;sigma=none",
        "n=0", "seed=-1", "threads=0", "tau=nan", "tau=inf", "tau=-inf",
        # inline fragments: no '=', a weight with no ':', an unknown key
        "config=X;sigma=pearson;weights", "config=X;sigma=pearson;weights=fb",
        "config=X;sigma=pearson;beta=0.5",
    ])
    def test_bad_spec_value_names_the_spec(self, tmp_path, canonical_dir, capsys,
                                           monkeypatch, line):
        import trustcf.cli as cli

        spec = write_spec(tmp_path / "exp.spec", canonical_dir, tmp_path / "out", line,
                          "config=MTR")
        monkeypatch.setattr(cli, "canonical_load", None)  # rejected before the load
        assert main(["eval", "--spec", str(spec)]) == 1
        assert f"usage error: {spec}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--threads", "0"), ("--threads", "-3"),
        ("--tau", "nan"), ("--tau", "inf"),
    ])
    def test_bad_override_names_the_flag(self, tmp_path, canonical_dir, capsys,
                                         monkeypatch, flag, value):
        import trustcf.cli as cli

        spec = write_spec(tmp_path / "exp.spec", canonical_dir, tmp_path / "out",
                          "config=MTR")
        monkeypatch.setattr(cli, "canonical_load", None)  # rejected before the load
        assert main(["eval", "--spec", str(spec), flag, value]) == 1
        assert f"usage error: {flag} must be " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_unwritable_report_is_a_data_error(self, tmp_path, canonical_dir, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        spec = write_spec(tmp_path / "exp.spec", canonical_dir, out, "config=MTR", "folds=2")
        assert main([command, "--spec", str(spec)]) == 2
        assert f"error: could not write report to {out}: " in capsys.readouterr().err

    def test_internal_errors_map_to_three(self, tmp_path, canonical_dir, monkeypatch):
        import trustcf.cli as cli

        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR")
        monkeypatch.setattr(
            cli, "canonical_load",
            lambda *_: (_ for _ in ()).throw(RuntimeError("boom")))
        assert main(["eval", "--spec", str(spec)]) == 3


class TestConfigNames:
    """A config name is one non-empty TSV field that names one configuration,
    and under sweep no two names write one rmse file; a spec that breaks
    this exits 1 before the dataset loads, naming the spec and the name."""

    @pytest.mark.parametrize("command, lines, name", [
        ("eval", ("config=X;sigma=pearson;weights=",
                  "config=X;sigma=rel_direct;weights=elite:1"), "'X'"),
        # a baseline pins beta to 1, an inline config takes the spec's
        ("eval", ("config=U2UCF", "config=U2UCF;sigma=pearson"), "'U2UCF'"),
        ("eval", ("config=a\tb;sigma=pearson",), "'a\\tb'"),
        ("sweep", ("config=a\0b;sigma=pearson",), "'a\\x00b'"),
        ("eval", ("config=;sigma=rel_direct",), "';sigma=rel_direct'"),
        ("sweep", ("config=a/b;sigma=pearson", "config=a_b;sigma=pearson"), "'a_b'"),
    ], ids=["two-configs", "baseline-and-inline", "tab", "nul", "empty", "one-rmse-file"])
    def test_bad_name_is_usage_error(self, tmp_path, canonical_dir, capsys, monkeypatch,
                                     command, lines, name):
        import trustcf.cli as cli

        spec = write_spec(tmp_path / "exp.spec", canonical_dir, tmp_path / "out", *lines)
        monkeypatch.setattr(cli, "canonical_load", None)  # rejected before the load
        assert main([command, "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {spec}: ") and name in err

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_repeated_token_gives_one_row(self, tmp_path, canonical_dir, command):
        out = tmp_path / "out"
        spec = write_spec(tmp_path / "exp.spec", canonical_dir, out, "config=X;sigma=pearson",
                          "config=X;sigma=pearson", "config=U2UCF", "config=U2UCF", "folds=2")
        grid = ["--beta-grid", "0.1"] if command == "sweep" else []
        assert main([command, "--spec", str(spec), *grid]) == 0
        rows = (out / "report.tsv").read_text().strip().split("\n")[1:]
        assert [row.split("\t")[:2] for row in rows] == [["X", "0.10"], ["U2UCF", "1.00"]]


class TestSweep:
    def test_grid_rows_and_rmse_files(self, tmp_path, canonical_dir):
        out = tmp_path / "out"
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, out,
            "config=U2UCF", "config=MTR", "folds=3", "k=2", "seed=5")
        rc = main(["sweep", "--spec", str(spec), "--beta-grid", "0.0,0.5,1.0"])
        assert rc == 0

        report = (out / "report.tsv").read_text().strip().split("\n")
        # U2UCF collapses the whole grid onto beta=1; MTR keeps all three
        assert len(report) == 1 + 1 + 3

        u2ucf = (out / "rmse_beta_U2UCF.tsv").read_text().strip().split("\n")
        assert u2ucf[0] == "beta\trmse"
        assert len(u2ucf) == 2
        mtr = (out / "rmse_beta_MTR.tsv").read_text().strip().split("\n")
        assert [line.split("\t")[0] for line in mtr[1:]] == ["0.00", "0.50", "1.00"]

    def test_default_grid_has_eleven_points(self, tmp_path, canonical_dir):
        out = tmp_path / "out"
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, out,
            "config=MTR", "folds=3", "k=2", "seed=5")
        assert main(["sweep", "--spec", str(spec)]) == 0
        mtr = (out / "rmse_beta_MTR.tsv").read_text().strip().split("\n")
        assert len(mtr) == 12
        assert mtr[1].startswith("0.00\t")
        assert mtr[-1].startswith("1.00\t")

    def test_bad_grid_value(self, tmp_path, canonical_dir):
        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR")
        assert main(["sweep", "--spec", str(spec), "--beta-grid", "0.0,2.0"]) == 1

    @pytest.mark.parametrize("grid", [" , ", ""])
    def test_grid_with_no_beta_is_usage_error(self, tmp_path, canonical_dir, capsys,
                                              monkeypatch, grid):
        import trustcf.cli as cli

        out = tmp_path / "out"
        spec = write_spec(tmp_path / "exp.spec", canonical_dir, out, "config=MTR")
        monkeypatch.setattr(cli, "canonical_load", None)  # rejected before the load
        assert main(["sweep", "--spec", str(spec), "--beta-grid", grid]) == 1
        assert "usage error: --beta-grid holds no beta" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture
def yelp_raw(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_lines(raw / "business.json", [
        {"business_id": "b1", "categories": ["Restaurants"]},
        {"business_id": "b2", "categories": ["Automotive"]},
    ])
    write_lines(raw / "review.json", [
        {"user_id": "u1", "business_id": "b1", "stars": 4, "date": "2012-01-01"},
        {"user_id": "u1", "business_id": "b2", "stars": 3, "date": "2012-01-02"},
        {"user_id": "u2", "business_id": "b1", "stars": 5, "date": "2012-01-03"},
        {"user_id": "u2", "business_id": "b2", "stars": 2, "date": "2012-01-04"},
    ])
    write_lines(raw / "user.json", [
        {"user_id": "u1", "elite": [], "fans": 1, "friends": ["u2"]},
        {"user_id": "u2", "elite": [], "fans": 0, "friends": ["u1"]},
    ])
    write_lines(raw / "tip.json", [])
    return raw


class TestIngest:
    def test_yelp_end_to_end(self, tmp_path, yelp_raw, capsys):
        out = tmp_path / "canon"
        rc = main(["ingest", "--source", "yelp", "--in", str(yelp_raw),
                   "--out", str(out), "--min-ratings", "1"])
        assert rc == 0
        d = canonical_load(out)
        assert d.provenance == "yelp"
        assert len(d.ratings) == 4
        assert "users: 2" in capsys.readouterr().out

    def test_category_closure_file(self, tmp_path, yelp_raw):
        closure = tmp_path / "closure.txt"
        closure.write_text("Restaurants\n")
        out = tmp_path / "canon"
        rc = main(["ingest", "--source", "yelp", "--in", str(yelp_raw),
                   "--out", str(out), "--min-ratings", "1",
                   "--category-closure", str(closure)])
        assert rc == 0
        d = canonical_load(out)
        assert list(d.items) == ["b1"]

    def test_builtin_category_closure(self, tmp_path, yelp_raw):
        out = tmp_path / "canon"
        rc = main(["ingest", "--source", "yelp", "--in", str(yelp_raw),
                   "--out", str(out), "--min-ratings", "1",
                   "--category-closure", "builtin:restaurants-food"])
        assert rc == 0
        assert list(canonical_load(out).items) == ["b1"]

    def test_missing_category_closure_file(self, tmp_path, yelp_raw, capsys):
        closure = tmp_path / "absent.txt"
        out = tmp_path / "canon"
        rc = main(["ingest", "--source", "yelp", "--in", str(yelp_raw),
                   "--out", str(out), "--min-ratings", "1",
                   "--category-closure", str(closure)])
        assert rc == 2
        assert f"required input file not found: {closure}" in capsys.readouterr().err
        assert not out.exists()

    def test_librarything_end_to_end(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "reviews.txt").write_text(
            "u1 {'work': 'w1', 'user': 'u1', 'stars': 4.0, 'unixtime': 1}\n"
            "u2 {'work': 'w1', 'user': 'u2', 'stars': 3.0, 'unixtime': 2}\n",
            encoding="utf-8",
        )
        (raw / "edges.txt").write_text("u1 u2\n", encoding="utf-8")
        out = tmp_path / "canon"
        rc = main(["ingest", "--source", "librarything", "--in", str(raw),
                   "--out", str(out), "--min-ratings", "1"])
        assert rc == 0
        d = canonical_load(out)
        assert d.provenance == "librarything"
        assert "users: 2" in capsys.readouterr().out

    @pytest.mark.parametrize("user", ["a\tb", ""])
    def test_unsafe_id_writes_nothing(self, tmp_path, capsys, user):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "reviews.txt").write_text(
            "{'work': 'w1', 'user': 'u1', 'stars': 4.0}\n"
            + repr({"work": "w1", "user": user, "stars": 3.0}) + "\n",
            encoding="utf-8",
        )
        (raw / "edges.txt").write_text("u1 u2\n", encoding="utf-8")
        out = tmp_path / "canon"
        rc = main(["ingest", "--source", "librarything", "--in", str(raw),
                   "--out", str(out), "--min-ratings", "1"])
        assert rc == 2
        assert "reviews.txt:2: user" in capsys.readouterr().err
        assert not out.exists()

    # a JSON or Python "\\ud800" escape reads as a lone surrogate, which no
    # UTF-8 file can hold: the record is named, and nothing is written
    @pytest.mark.parametrize("name, record, field", [
        ("review.json", {"user_id": "\ud800x", "business_id": "b1", "stars": 4}, "user_id"),
        ("review.json", {"user_id": "u1", "business_id": "\ud800x", "stars": 4}, "business_id"),
        ("business.json", {"business_id": "b3", "categories": ["Restaurants", "\ud800x"]},
         "category"),
        ("reviews.txt", {"work": "w1", "user": "\ud800x", "stars": 3.0}, "user"),
    ], ids=["yelp-user", "yelp-business", "yelp-tag", "librarything-user"])
    def test_lone_surrogate_id_is_named(self, tmp_path, yelp_raw, capsys, name, record, field):
        raw, source = yelp_raw, "yelp"
        if name == "reviews.txt":
            raw, source = tmp_path / "lt", "librarything"
            raw.mkdir()
            (raw / "reviews.txt").write_text("{'work': 'w1', 'user': 'u1', 'stars': 4.0}\n")
            (raw / "edges.txt").write_text("u1 u2\n")
        path = raw / name
        line = path.read_bytes().count(b"\n") + 1
        with open(path, "a", encoding="ascii") as fh:  # the escape is ASCII
            fh.write((json.dumps(record) if name.endswith(".json") else repr(record)) + "\n")
        out = tmp_path / "canon"
        rc = main(["ingest", "--source", source, "--in", str(raw), "--out", str(out),
                   "--min-ratings", "1"])
        assert rc == 2
        assert f"{name}:{line}: {field} '\\ud800x' is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source, name", [
        ("yelp", "business.json"), ("yelp", "review.json"), ("yelp", "user.json"),
        ("yelp", "tip.json"), ("yelp", "closure.txt"),
        ("librarything", "reviews.txt"), ("librarything", "edges.txt"),
    ])
    def test_undecodable_input_names_file_and_line(
        self, tmp_path, yelp_raw, capsys, source, name
    ):
        raw = yelp_raw
        if source == "librarything":
            raw = tmp_path / "lt"
            raw.mkdir()
            (raw / "reviews.txt").write_text("{'work': 'w1', 'user': 'u1', 'stars': 4.0}\n")
            (raw / "edges.txt").write_text("u1 u2\n")
        closure = tmp_path / "closure.txt"
        closure.write_text("# restaurants\nRestaurants\n")
        path = closure if name == "closure.txt" else raw / name
        line = path.read_bytes().count(b"\n") + 1
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        rc = main(["ingest", "--source", source, "--in", str(raw), "--out", str(tmp_path / "c"),
                   "--min-ratings", "1", "--category-closure", str(closure)])
        assert rc == 2
        assert f"{name}:{line}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "two"])
    def test_bad_min_ratings_is_usage_error(self, tmp_path, yelp_raw, capsys, monkeypatch,
                                            value):
        import trustcf.cli as cli

        out = tmp_path / "canon"
        monkeypatch.setattr(cli, "ingest_yelp", None)  # rejected before the dump is read
        rc = main(["ingest", "--source", "yelp", "--in", str(yelp_raw),
                   "--out", str(out), "--min-ratings", value])
        assert rc == 1
        assert "usage error: --min-ratings must be " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_directory(self, tmp_path):
        rc = main(["ingest", "--source", "yelp", "--in", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_missing_member_file(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["ingest", "--source", "yelp", "--in", str(empty),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_filter_warnings_go_to_stderr(self, tmp_path, yelp_raw, capsys):
        # add a duplicate review to trigger the warning line
        with open(yelp_raw / "review.json", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "user_id": "u1", "business_id": "b1", "stars": 1,
                "date": "2011-01-01"}) + "\n")
        out = tmp_path / "canon"
        rc = main(["ingest", "--source", "yelp", "--in", str(yelp_raw),
                   "--out", str(out), "--min-ratings", "1"])
        assert rc == 0
        assert "duplicate" in capsys.readouterr().err


class TestArgumentErrors:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self):
        assert main(["eval", "--nope"]) == 1

    def test_bad_source_choice(self, tmp_path):
        assert main(["ingest", "--source", "netflix", "--in", "x", "--out", "y"]) == 1


@pytest.mark.skipif(shutil.which("trustcf") is None,
                    reason="console script not installed")
def test_console_script_smoke(tmp_path):
    proc = subprocess.run(
        ["trustcf", "eval", "--spec", str(tmp_path / "none.spec")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "usage error" in proc.stderr


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "trustcf.cli", "eval",
         "--spec", str(tmp_path / "none.spec")],
        capture_output=True, text=True)
    assert proc.returncode == 1
