"""Command-line front end: ingest raw dumps, evaluate, sweep beta.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
inconsistent input), 3 internal error.  Result files are staged next to
their target and renamed into place only on success, so an interrupted
run never leaves a half-written report.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from itertools import product
from math import isfinite
from pathlib import Path

from .canonical import canonical_load, canonical_save, read_utf8, unsafe_field, write_atomic
from .dataset import apply_filters, compute_stats
from .errors import IoFailure, MalformedRecord, MissingFile, TrustcfError, UnknownConfiguration
from .evaluation import EvaluationReport, format_metric, run_experiment, split_folds
from .ingest import (
    ingest_librarything,
    ingest_yelp,
    load_category_closure,
    restaurants_food_closure,
)
from .recommender import SIMILARITY_MODES, InfluenceConfig, config_names, make_config
from .trust import FacetWeights

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


# -- experiment spec ----------------------------------------------------------

_SPEC_KEYS = {
    "dataset", "out", "config", "beta", "folds", "k", "n", "seed", "tau", "threads",
}


# integer keys: (ExperimentSpec field, smallest value)
_SPEC_INTS = {"folds": ("folds", 2), "k": ("k", 1), "n": ("neighbor_count", 1),
              "seed": ("seed", 0), "threads": ("threads", 1)}


@dataclass
class ExperimentSpec:
    """Flat key=value experiment description; repeated keys form lists."""

    dataset: Path
    out: Path
    configs: list[str] = field(default_factory=list)
    betas: list[float] = field(default_factory=lambda: [0.1])
    folds: int = 10
    k: int = 10
    neighbor_count: int = 50
    seed: int = 17
    tau: float = 4.0
    threads: int = 1


def parse_spec(path: Path) -> ExperimentSpec:
    """The spec file at ``path``; every UsageError names it."""
    if not path.is_file():
        raise UsageError(f"spec file not found: {path}")
    try:
        text = read_utf8(path).decode("utf-8")
    except MalformedRecord as exc:
        raise UsageError(str(exc)) from None
    values: dict[str, list[str]] = {}
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SPEC_KEYS:
            raise UsageError(
                f"{path}:{line_no}: unknown key {key!r} (known: {', '.join(sorted(_SPEC_KEYS))})"
            )
        if key in ("dataset", "out") and "\0" in value:
            raise UsageError(f"{path}:{line_no}: {key} holds a NUL byte")
        values.setdefault(key, []).append(value)

    def one(key: str) -> str | None:
        got = values.get(key, [None])
        if len(got) > 1:
            raise UsageError(f"key {key!r} given more than once")
        return got[0]

    try:
        dataset, out = one("dataset"), one("out")
        if dataset is None or out is None:
            raise UsageError("spec must define both 'dataset' and 'out'")
        spec = ExperimentSpec(dataset=Path(dataset), out=Path(out))
        spec.configs = values.get("config", [])
        if not spec.configs:
            raise UsageError("spec must name at least one config")
        # a key the spec leaves out keeps ExperimentSpec's default
        if "beta" in values:
            spec.betas = [_parse_beta(b) for b in values["beta"]]
        for key, (name, minimum) in _SPEC_INTS.items():
            if key in values:
                setattr(spec, name, _parse_int(one(key), key, minimum=minimum))
        if "tau" in values:
            spec.tau = _parse_float(one("tau"), "tau")
        _check_configs(spec)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from None
    return spec


def _check_configs(spec: ExperimentSpec) -> None:
    """Build every config of ``spec`` once, so a bad one fails before the
    dataset loads, and check that each name is one non-empty TSV field
    naming one configuration (repeating a config's token is allowed)."""
    named: dict[str, tuple[str, InfluenceConfig]] = {}
    for token in spec.configs:
        # at beta 0 a baseline's pinned beta (1) differs from an inline
        # config's, so two configs equal here are equal at every beta
        config = _build_config(token, 0.0, spec.neighbor_count)
        name = config.name
        if not name:
            raise UsageError(f"config {token!r} has an empty name")
        if unsafe_field(name) or "\0" in name:
            raise UsageError(f"config name {name!r} holds a tab, line break or NUL byte")
        first, seen = named.setdefault(name, (token, config))
        if seen != config:
            raise UsageError(
                f"config name {name!r} names two configurations: {first!r} and {token!r}"
            )


def _parse_int(raw: str, name: str, minimum: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise UsageError(f"{name} must be >= {minimum}")
    return value


def _parse_float(raw: str, name: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"{name} must be a number, got {raw!r}") from None
    if not isfinite(value):
        raise UsageError(f"{name} must be a finite number, got {raw!r}")
    return value


def _parse_beta(raw: str) -> float:
    value = _parse_float(raw, "beta")
    if not 0.0 <= value <= 1.0:
        raise UsageError(f"beta must lie in [0, 1], got {value}")
    return value


def _build_config(token: str, beta: float, neighbor_count: int) -> InfluenceConfig:
    """A catalogue name, or an inline form
    name;sigma=<mode>;weights=facet:w,facet:w[;relmode=<mode>]."""
    if ";" not in token:
        try:
            return make_config(token, beta=beta, neighbor_count=neighbor_count)
        except UnknownConfiguration:
            raise UsageError(
                f"unknown config {token!r}; valid names: {', '.join(config_names())}"
            ) from None
    name, *parts = (part.strip() for part in token.split(";"))
    sigma = None
    weights: dict[str, float] = {}
    rel_mode = "none"
    for part in parts:
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad inline config fragment {part!r}")
        key, value = (s.strip() for s in part.split("=", 1))
        if key == "sigma":
            if value not in SIMILARITY_MODES:
                raise UsageError(
                    f"sigma must be one of {', '.join(SIMILARITY_MODES)}, got {value!r}"
                )
            sigma = value
        elif key == "relmode":
            rel_mode = value
        elif key == "weights":
            for chunk in value.split(","):
                if not chunk.strip():
                    continue
                if ":" not in chunk:
                    raise UsageError(f"bad weight {chunk!r}, expected facet:value")
                facet, w = (s.strip() for s in chunk.split(":", 1))
                weights[facet] = _parse_float(w, f"weight for {facet}")
        else:
            raise UsageError(f"unknown inline config key {key!r}")
    if sigma is None:
        raise UsageError(f"inline config {name!r} must set sigma=<mode>")
    try:
        return InfluenceConfig(
            name=name,
            similarity_mode=sigma,
            facet_weights=FacetWeights(weights, rel_mode=rel_mode),
            beta=beta,
            neighbor_count=neighbor_count,
        )
    except ValueError as exc:
        raise UsageError(f"invalid inline config {name!r}: {exc}") from None


# -- commands -----------------------------------------------------------------

_YELP_NAMES = {
    "business": ("business.json", "yelp_academic_dataset_business.json"),
    "review": ("review.json", "yelp_academic_dataset_review.json"),
    "user": ("user.json", "yelp_academic_dataset_user.json"),
    "tip": ("tip.json", "yelp_academic_dataset_tip.json"),
}

_LT_REVIEW_NAMES = ("reviews.txt", "reviews.json")
_LT_FRIEND_NAMES = ("edges.txt", "friends.txt")


def _find(directory: Path, candidates: tuple[str, ...], what: str) -> Path:
    for name in candidates:
        path = directory / name
        if path.is_file():
            return path
    raise MissingFile(
        f"no {what} file in {directory} (looked for {', '.join(candidates)})"
    )


def cmd_ingest(args) -> int:
    min_ratings = _parse_int(args.min_ratings, "--min-ratings", minimum=0)
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise MissingFile(f"input directory not found: {in_dir}")
    if args.source == "yelp":
        dataset = ingest_yelp(
            _find(in_dir, _YELP_NAMES["business"], "business"),
            _find(in_dir, _YELP_NAMES["review"], "review"),
            _find(in_dir, _YELP_NAMES["user"], "user"),
            _find(in_dir, _YELP_NAMES["tip"], "tip"),
        )
    else:
        dataset = ingest_librarything(
            _find(in_dir, _LT_REVIEW_NAMES, "review"),
            _find(in_dir, _LT_FRIEND_NAMES, "friend"),
        )

    closure = None
    if args.category_closure:
        if args.category_closure == "builtin:restaurants-food":
            closure = restaurants_food_closure()
        else:
            closure = load_category_closure(args.category_closure)
    filtered = apply_filters(dataset, min_ratings, closure)
    canonical_save(filtered, Path(args.out_dir))

    w = dataset.warnings
    if w.duplicate_ratings or w.dropped_unrated:
        print(
            f"warnings: {w.duplicate_ratings} duplicate ratings collapsed, "
            f"{w.dropped_unrated} unrated reviews dropped",
            file=sys.stderr,
        )
    print(compute_stats(filtered).to_text())
    return EXIT_OK


def _run_from_spec(spec: ExperimentSpec, betas: list[float]) -> EvaluationReport:
    dataset = canonical_load(spec.dataset)
    # pure-similarity baselines collapse every beta onto the same row
    unique: dict[tuple[str, float], InfluenceConfig] = {}
    for token, beta in product(spec.configs, betas):
        c = _build_config(token, beta, spec.neighbor_count)
        unique.setdefault((c.name, c.beta), c)
    plan = split_folds(dataset, spec.folds, spec.seed)
    return run_experiment(
        dataset, list(unique.values()), plan, k=spec.k, tau=spec.tau, workers=spec.threads
    )


def _load_spec(args) -> ExperimentSpec:
    """The spec file, with the seed, tau and threads given on the command
    line, each checked as the spec's value is."""
    spec = parse_spec(Path(args.spec))
    for key in ("seed", "threads"):
        if getattr(args, key) is not None:
            name, minimum = _SPEC_INTS[key]
            setattr(spec, name, _parse_int(getattr(args, key), f"--{key}", minimum=minimum))
    if args.tau is not None:
        spec.tau = _parse_float(args.tau, "--tau")
    return spec


def _write_report(out: Path, report: EvaluationReport, files: dict[str, str]) -> int:
    """Write the report files and ``files`` to ``out``, then print the report."""
    files = {"report.tsv": report.to_tsv(), "summary.json": report.to_summary_json(), **files}
    try:
        write_atomic(out, {name: text.encode("utf-8") for name, text in files.items()})
    except OSError as exc:
        raise IoFailure(f"could not write report to {out}: {exc}") from None
    print(files["report.tsv"], end="")
    return EXIT_OK


def cmd_eval(args) -> int:
    spec = _load_spec(args)
    return _write_report(spec.out, _run_from_spec(spec, spec.betas), {})


def cmd_sweep(args) -> int:
    spec = _load_spec(args)
    if args.beta_grid is not None:
        betas = [_parse_beta(b) for b in args.beta_grid.split(",") if b.strip()]
        if not betas:
            raise UsageError(f"--beta-grid holds no beta, got {args.beta_grid!r}")
    else:
        betas = [round(0.1 * n, 1) for n in range(11)]
    names: dict[str, str] = {}  # rmse file -> the config name it is written for
    for token in spec.configs:
        name = token.split(";", 1)[0].strip()
        file = f"rmse_beta_{name.replace('/', '_')}.tsv"
        if names.setdefault(file, name) != name:
            raise UsageError(
                f"{args.spec}: config names {names[file]!r} and {name!r} would both write {file}"
            )
    report = _run_from_spec(spec, betas)

    files = {}
    for file, name in names.items():
        rows = [r for r in report.rows if r.config == name]
        body = "".join(f"{r.beta:.2f}\t{format_metric(r.rmse)}\n" for r in rows)
        files[file] = "beta\trmse\n" + body
    return _write_report(spec.out, report, files)


def _add_overrides(command: argparse.ArgumentParser) -> None:
    """The flags that override the spec file's seed, tau and threads."""
    for name in ("--seed", "--tau", "--threads"):
        command.add_argument(name, default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trustcf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="read a raw dump, filter it, save canonically")
    ingest.add_argument("--source", required=True, choices=("yelp", "librarything"))
    ingest.add_argument("--in", dest="in_dir", required=True, metavar="DIR")
    ingest.add_argument("--out", dest="out_dir", required=True, metavar="DIR")
    ingest.add_argument("--min-ratings", default="20")
    ingest.add_argument(
        "--category-closure",
        metavar="FILE",
        help="category tag file, or builtin:restaurants-food",
    )
    ingest.set_defaults(func=cmd_ingest)

    ev = sub.add_parser("eval", help="cross-validate the configs named in a spec file")
    ev.add_argument("--spec", required=True, metavar="FILE")
    _add_overrides(ev)
    ev.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="evaluate across a beta grid")
    sweep.add_argument("--spec", required=True, metavar="FILE")
    sweep.add_argument("--beta-grid", metavar="B1,B2,...", default=None)
    _add_overrides(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrustcfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
