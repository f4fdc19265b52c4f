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
from pathlib import Path

from .canonical import canonical_load, canonical_save, write_atomic
from .dataset import apply_filters, compute_stats
from .errors import MissingFile, TrustcfError, UnknownConfiguration
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
    if not path.is_file():
        raise UsageError(f"spec file not found: {path}")
    values: dict[str, list[str]] = {}
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
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
        values.setdefault(key, []).append(value)

    def one(key: str, default=None) -> str | None:
        got = values.get(key)
        if got is None:
            return default
        if len(got) > 1:
            raise UsageError(f"{path}: key {key!r} given more than once")
        return got[0]

    dataset = one("dataset")
    out = one("out")
    if dataset is None or out is None:
        raise UsageError(f"{path}: spec must define both 'dataset' and 'out'")
    spec = ExperimentSpec(dataset=Path(dataset), out=Path(out))
    spec.configs = values.get("config", [])
    if not spec.configs:
        raise UsageError(f"{path}: spec must name at least one config")
    if "beta" in values:
        spec.betas = [_parse_beta(b) for b in values["beta"]]
    spec.folds = _parse_int(one("folds", "10"), "folds", minimum=2)
    spec.k = _parse_int(one("k", "10"), "k", minimum=1)
    spec.neighbor_count = _parse_int(one("n", "50"), "n", minimum=1)
    spec.seed = _parse_int(one("seed", "17"), "seed", minimum=0)
    spec.tau = _parse_float(one("tau", "4.0"), "tau")
    spec.threads = _parse_int(one("threads", "1"), "threads", minimum=1)
    return spec


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
        return float(raw)
    except ValueError:
        raise UsageError(f"{name} must be a number, got {raw!r}") from None


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
    parts = token.split(";")
    name = parts[0].strip()
    sigma = None
    weights: dict[str, float] = {}
    rel_mode = "none"
    for part in parts[1:]:
        part = part.strip()
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
    filtered = apply_filters(dataset, args.min_ratings, closure)
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


def _run_from_spec(spec: ExperimentSpec, betas: list[float], threads: int, tau: float) -> EvaluationReport:
    dataset = canonical_load(spec.dataset)
    configs = [
        _build_config(token, beta, spec.neighbor_count)
        for token in spec.configs
        for beta in betas
    ]
    # pure-similarity baselines collapse every beta onto the same row
    unique, seen = [], set()
    for c in configs:
        key = (c.name, c.beta)
        if key not in seen:
            seen.add(key)
            unique.append(c)
    plan = split_folds(dataset, spec.folds, spec.seed)
    return run_experiment(
        dataset, unique, plan, k=spec.k, tau=tau, workers=threads
    )


def cmd_eval(args) -> int:
    spec = parse_spec(Path(args.spec))
    if args.seed is not None:
        spec.seed = args.seed
    tau = spec.tau if args.tau is None else args.tau
    threads = spec.threads if args.threads is None else args.threads
    report = _run_from_spec(spec, spec.betas, threads, tau)
    write_atomic(
        spec.out,
        {"report.tsv": report.to_tsv(), "summary.json": report.to_summary_json()},
    )
    print(report.to_tsv(), end="")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = parse_spec(Path(args.spec))
    if args.seed is not None:
        spec.seed = args.seed
    tau = spec.tau if args.tau is None else args.tau
    threads = spec.threads if args.threads is None else args.threads
    if args.beta_grid:
        betas = [_parse_beta(b) for b in args.beta_grid.split(",") if b.strip()]
    else:
        betas = [round(0.1 * n, 1) for n in range(11)]
    report = _run_from_spec(spec, betas, threads, tau)

    files = {"report.tsv": report.to_tsv(), "summary.json": report.to_summary_json()}
    for token in spec.configs:
        name = token.split(";", 1)[0].strip()
        rows = [r for r in report.rows if r.config == name]
        body = "".join(f"{r.beta:.2f}\t{format_metric(r.rmse)}\n" for r in rows)
        files[f"rmse_beta_{name.replace('/', '_')}.tsv"] = "beta\trmse\n" + body
    write_atomic(spec.out, files)
    print(report.to_tsv(), end="")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="trustcf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="read a raw dump, filter it, save canonically")
    ingest.add_argument("--source", required=True, choices=("yelp", "librarything"))
    ingest.add_argument("--in", dest="in_dir", required=True, metavar="DIR")
    ingest.add_argument("--out", dest="out_dir", required=True, metavar="DIR")
    ingest.add_argument("--min-ratings", type=int, default=20)
    ingest.add_argument(
        "--category-closure",
        metavar="FILE",
        help="category tag file, or builtin:restaurants-food",
    )
    ingest.set_defaults(func=cmd_ingest)

    shared = dict(spec=("--spec",), seed=("--seed",), tau=("--tau",), threads=("--threads",))

    ev = sub.add_parser("eval", help="cross-validate the configs named in a spec file")
    ev.add_argument(*shared["spec"], required=True, metavar="FILE")
    ev.add_argument(*shared["seed"], type=int, default=None)
    ev.add_argument(*shared["tau"], type=float, default=None)
    ev.add_argument(*shared["threads"], type=int, default=None)
    ev.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="evaluate across a beta grid")
    sweep.add_argument(*shared["spec"], required=True, metavar="FILE")
    sweep.add_argument("--beta-grid", metavar="B1,B2,...", default=None)
    sweep.add_argument(*shared["seed"], type=int, default=None)
    sweep.add_argument(*shared["tau"], type=float, default=None)
    sweep.add_argument(*shared["threads"], type=int, default=None)
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
