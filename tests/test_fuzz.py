"""Seeded fuzz of the command line: bad input exits 2 and names a file, never 3.

Each case mutates one input file in one way and runs the command on it.
Exit 0 is allowed, since a mutation may leave valid input; an exit-2
message must name one of the inputs, and an exit-1 message, which only
a mutated experiment spec may cause, must name the spec.  A second pass
sets one field of one raw record at a time to an odd JSON value.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from trustcf import canonical_save
from trustcf.cli import main

from conftest import random_dataset
from test_ingest import write_lines

MUTATIONS = ("truncate", "tab", "cr", "nul", "ff", "delete", "duplicate")
CASES_PER_MUTATION = 3


def mutate(data: bytes, kind: str, rng: np.random.Generator) -> bytes:
    """``data`` with one mutation of ``kind`` at a random place."""
    at = int(rng.integers(0, len(data) + 1))
    if kind == "truncate":
        return data[:at]
    if kind in ("tab", "cr", "nul", "ff"):
        byte = {"tab": b"\t", "cr": b"\r", "nul": b"\0", "ff": b"\xff"}[kind]
        return data[:at] + byte + data[at:]
    if kind == "delete":
        return data[:at] + data[at + 1:]
    lines = data.splitlines(keepends=True)
    n = int(rng.integers(0, len(lines)))
    return b"".join(lines[:n + 1] + lines[n:])


def yelp_dump(directory):
    write_lines(directory / "business.json", [
        {"business_id": "b1", "categories": ["Restaurants", "Pizza"]},
        {"business_id": "b2", "categories": "Auto Repair, Tires"},
    ])
    write_lines(directory / "review.json", [
        {"user_id": "u1", "business_id": "b1", "stars": 4, "date": "2012-01-01",
         "useful": 2, "funny": 1, "cool": 0},
        {"user_id": "u2", "business_id": "b1", "stars": 5, "date": "2012-02-02",
         "votes": {"useful": 3, "funny": 0, "cool": 1}},
        {"user_id": "u2", "business_id": "b2", "stars": 2, "date": "2012-03-03"},
    ])
    write_lines(directory / "user.json", [
        {"user_id": "u1", "elite": ["2010"], "fans": 3, "friends": ["u2"],
         "compliment_more": 1, "compliment_note": 2, "compliment_writer": 3},
        {"user_id": "u2", "elite": "2011", "fans": 0, "friends": "u1"},
    ])
    write_lines(directory / "tip.json", [
        {"user_id": "u1", "business_id": "b1", "likes": 4},
        {"user_id": "u2", "business_id": "b2", "compliment_count": 1},
    ])


def librarything_dump(directory):
    (directory / "reviews.txt").write_text(
        "u1 {'work': 'w1', 'user': 'u1', 'stars': 4.0, 'nhelpful': 2, 'unixtime': 1}\n"
        + json.dumps({"work": "w2", "user": "u2", "stars": 3.0, "unixtime": 2}) + "\n"
        "u2 {'work': 'w1', 'user': 'u2', 'stars': 5.0, 'nhelpful': 0}\n",
        encoding="utf-8",
    )
    (directory / "edges.txt").write_text("u1 u2\nu2 u3\n", encoding="utf-8")


SPEC = "exp.spec"


def eval_case(directory):
    """A canonical directory holding a spec that evaluates it, with paths
    relative to the directory, so that a copy evaluates itself."""
    canonical_save(random_dataset(np.random.default_rng(11), 12, 10, 60), directory)
    (directory / SPEC).write_text(
        "dataset=.\nout=out\nconfig=U2UCF\nconfig=MTR\nfolds=2\nk=2\n", encoding="utf-8")


COMMANDS = {
    "eval": (eval_case, lambda d: ["eval", "--spec", str(d / SPEC)]),
    "yelp": (yelp_dump, lambda d: [
        "ingest", "--source", "yelp", "--in", str(d), "--out", str(d / "out"),
        "--min-ratings", "1"]),
    "librarything": (librarything_dump, lambda d: [
        "ingest", "--source", "librarything", "--in", str(d), "--out", str(d / "out"),
        "--min-ratings", "1"]),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_input_is_a_data_error(tmp_path, capsys, monkeypatch, command):
    write, argv = COMMANDS[command]
    clean = tmp_path / "clean"
    clean.mkdir()
    write(clean)
    inputs = sorted(p.name for p in clean.iterdir())
    rng = np.random.default_rng(sorted(COMMANDS).index(command))
    failed = []
    for n, name in enumerate(p for p in inputs for _ in range(CASES_PER_MUTATION)):
        for kind in MUTATIONS:
            case = tmp_path / f"case{n}_{kind}"
            shutil.copytree(clean, case)
            path = case / name
            path.write_bytes(mutate(path.read_bytes(), kind, rng))
            monkeypatch.chdir(case)
            code = main(argv(case))
            err = capsys.readouterr().err
            if code == 1:  # a usage error, which only the spec may cause
                ok = name == SPEC and SPEC in err
            else:
                ok = code == 0 or (code == 2 and any(p in err for p in inputs))
            if not ok:
                failed.append(f"{name} {kind}: exit {code}, {err.strip()!r}")
    assert not failed, "\n".join(failed)


# every value once in every field of the records below, each record appended to
# its file so that it replaces the dump's record of the same key: null, a boolean,
# 0, -1, 2**63, 10**30, a 400-digit integer, an infinite float (json reads 1e999
# as inf), NaN, a string holding a tab, a list and a dict
ODD_VALUES = (
    "null", "true", "0", "-1", str(2 ** 63), str(10 ** 30), str(10 ** 399),
    "1e999", "NaN", json.dumps("a\tb"), '["x", 1]', '{"k": "v"}',
)
YELP_RECORDS = {
    "business.json": {"business_id": "b1", "categories": ["Restaurants"]},
    "review.json": {"user_id": "u1", "business_id": "b1", "stars": 4, "date": "2012-01-01",
                    "useful": 2, "funny": 1, "cool": 0, "votes": None},
    "user.json": {"user_id": "u1", "elite": ["2010"], "fans": 3, "friends": ["u2"],
                  "compliment_more": 1, "compliment_note": 2, "compliment_writer": 3},
    "tip.json": {"user_id": "u1", "business_id": "b1", "likes": 4, "compliment_count": 1},
}
LT_RECORD = {"work": "w1", "user": "u1", "stars": 4.0, "nhelpful": 2, "unixtime": 1}


def with_value(record: dict, field: str, literal: str) -> str:
    """``record`` as a JSON line, with ``field`` set to the JSON text ``literal``."""
    return json.dumps({**record, field: "@"}).replace('"@"', literal) + "\n"


def odd_value_cases():
    """(source, dump writer, file, field, literal) of every case."""
    for name, record in YELP_RECORDS.items():
        for field in record:
            for literal in ODD_VALUES:
                def write(d, name=name, field=field, literal=literal):
                    yelp_dump(d)
                    with open(d / name, "a", encoding="utf-8") as fh:
                        fh.write(with_value(YELP_RECORDS[name], field, literal))
                yield "yelp", write, name, field, literal
    for field in LT_RECORD:
        for literal in ODD_VALUES:
            def write(d, field=field, literal=literal):
                librarything_dump(d)
                with open(d / "reviews.txt", "a", encoding="utf-8") as fh:
                    fh.write("u1 " + with_value(LT_RECORD, field, literal))
            yield "librarything", write, "reviews.txt", field, literal


def test_odd_field_values_are_data_errors(tmp_path, capsys):
    raw = set(YELP_RECORDS) | {"reviews.txt", "edges.txt"}
    failed = []
    for n, (command, write, name, field, literal) in enumerate(odd_value_cases()):
        case = tmp_path / f"case{n}"
        case.mkdir()
        write(case)
        code = main(COMMANDS[command][1](case))
        err = capsys.readouterr().err
        if code not in (0, 2) or (code == 2 and not any(p in err for p in raw)):
            failed.append(f"{name} {field}={literal[:20]}: exit {code}, {err.strip()[:200]!r}")
    assert not failed, "\n".join(failed)
