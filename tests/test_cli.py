"""End-to-end command-line behavior, including exit codes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from trustcf import canonical_load, canonical_save
from trustcf.cli import main, parse_spec, UsageError

from conftest import build_tiny
from test_ingest import write_lines


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
        assert "manifest.txt: num_ratings is '99'" in capsys.readouterr().err

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

    def test_missing_spec_file(self, tmp_path):
        assert main(["eval", "--spec", str(tmp_path / "none.spec")]) == 1

    def test_internal_errors_map_to_three(self, tmp_path, canonical_dir, monkeypatch):
        import trustcf.cli as cli

        spec = write_spec(
            tmp_path / "exp.spec", canonical_dir, tmp_path / "out", "config=MTR")
        monkeypatch.setattr(
            cli, "canonical_load",
            lambda *_: (_ for _ in ()).throw(RuntimeError("boom")))
        assert main(["eval", "--spec", str(spec)]) == 3


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
