"""Top-level acceptance checks.

Each test covers one contract the package must honor and reports a
single `ACCEPTANCE <name>: PASS|FAIL` line straight to the terminal,
so a full run reads as a checklist.  The large-scale test at the bottom
exercises a realistically sized corpus and takes several minutes.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from trustcf import (
    FacetWeights,
    InfluenceConfig,
    ItemCategories,
    PredictionKind,
    RecItem,
    RecommendationList,
    TrainedModel,
    TrustProfiles,
    accuracy_metrics,
    apply_filters,
    build_yelp_profiles,
    compute_stats,
    config_names,
    fold_assignment,
    fuse_trust,
    indicator_fcontr,
    indicator_fendors,
    indicator_frev,
    indicator_visibility,
    intra_diversity,
    make_config,
    ranking_metrics,
    run_experiment,
    split_folds,
)
from trustcf.errors import UnknownUser

import reference
from conftest import build_tiny, random_dataset

# the benchmark's corpus generator is the one generator of synthetic corpora
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from corpus import synth_corpus  # noqa: E402

GIB = 1024 ** 3


@contextlib.contextmanager
def announce(capsys, name):
    """Print one checklist line for this block, bypassing capture."""
    try:
        yield
    except BaseException as exc:
        verdict = "SKIPPED" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: {verdict}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: PASS")


def random_inline_config(rng) -> InfluenceConfig:
    names = ("elite", "lup", "opleader", "vis", "fb", "fendors", "fcontr",
             "frev", "rel")
    chosen = rng.choice(len(names), size=int(rng.integers(1, 5)), replace=False)
    weights = {names[int(c)]: float(rng.random()) for c in chosen}
    rel_mode = "none"
    if "rel" in weights:
        rel_mode = ("direct", "intersection")[int(rng.integers(2))]
    sigma = ("pearson", "rel_direct", "rel_intersection")[int(rng.integers(3))]
    return InfluenceConfig(
        name="inline",
        similarity_mode=sigma,
        facet_weights=FacetWeights(weights, rel_mode=rel_mode),
        beta=float(rng.random()),
        neighbor_count=int(rng.integers(1, 11)),
    )


def test_naive_reference_equivalence(capsys):
    """200 random instances predict identically to the quadruple-loop oracle."""
    with announce(capsys, "naive-reference equivalence"):
        rng = np.random.default_rng(701)
        started = time.monotonic()
        catalogue = config_names()
        compared = 0
        for trial in range(200):
            d = random_dataset(rng, max_users=50, max_items=30, max_ratings=200)
            profiles = build_yelp_profiles(d)
            if trial % 4 == 3:
                cfg = random_inline_config(rng)
            else:
                cfg = make_config(
                    catalogue[trial % len(catalogue)],
                    beta=float(rng.random()),
                    neighbor_count=int(rng.integers(1, 11)),
                )
            model = TrainedModel(d.ratings, profiles, d.social, cfg)
            by_user, by_item, friends = reference.plain_views(d)
            vectors, frev = reference.plain_profiles(profiles)
            for _ in range(8):
                u = int(rng.integers(0, d.ratings.num_users))
                i = int(rng.integers(0, d.ratings.num_items))
                expect = reference.naive_predict(
                    by_user, by_item, friends, vectors, frev, cfg, u, i)
                if expect is None:
                    with pytest.raises(UnknownUser):
                        model.predict(u, i)
                    continue
                value, is_model = expect
                got = model.predict(u, i)
                assert abs(got.value - value) <= 1e-9, (trial, u, i, cfg.name)
                assert (got.kind is PredictionKind.MODEL) == is_model
                compared += 1
        elapsed = time.monotonic() - started
        assert compared > 1000
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_similarity_only_degeneracy(capsys):
    """All trust weights at zero reduce every blend to the plain baseline.

    Scaling each influence by the same positive constant changes neither
    the neighbor ranking nor the normalized prediction, so any beta must
    give the exact baseline output.
    """
    with announce(capsys, "similarity-only degeneracy"):
        rng = np.random.default_rng(702)
        zero = {name: 0.0 for name in
                ("elite", "lup", "opleader", "vis", "fb", "frev", "rel")}
        for trial in range(60):
            d = random_dataset(rng, max_users=50, max_items=30, max_ratings=200)
            profiles = build_yelp_profiles(d)
            baseline = TrainedModel(
                d.ratings, profiles, d.social, make_config("U2UCF"))
            beta = (0.1, 0.5, 0.9)[trial % 3]
            blended = TrainedModel(
                d.ratings, profiles, d.social,
                InfluenceConfig(
                    name="weightless", similarity_mode="pearson",
                    facet_weights=FacetWeights(zero, rel_mode="direct"),
                    beta=beta))
            for u in range(d.ratings.num_users):
                if d.ratings.rating_count_of(u) == 0:
                    continue
                for i in range(d.ratings.num_items):
                    a = baseline.predict(u, i)
                    b = blended.predict(u, i)
                    assert abs(a.value - b.value) <= 1e-12
                    assert a.kind is b.kind


def test_beta_boundary_behavior(capsys):
    """beta=1 leaves similarity alone; beta=0 leaves fused trust alone."""
    with announce(capsys, "beta boundary behavior"):
        tiny = build_tiny()
        profiles = build_yelp_profiles(tiny)

        # beta = 1: the full model must be indistinguishable from the
        # similarity-only baseline, neighbors and predictions alike.
        full = TrainedModel(tiny.ratings, profiles, tiny.social,
                            make_config("MTR", beta=1.0))
        baseline = TrainedModel(tiny.ratings, profiles, tiny.social,
                                make_config("U2UCF"))
        for u in range(5):
            for i in range(4):
                assert full.select_neighbors(u, i) == baseline.select_neighbors(u, i)
                assert full.predict(u, i) == baseline.predict(u, i)

        # beta = 0: influence equals the fused trust score for every
        # candidate, and predictions match the oracle run with the same
        # trust-only configuration.
        cfg = make_config("MTR", beta=0.0)
        trust_only = TrainedModel(tiny.ratings, profiles, tiny.social, cfg)
        by_user, by_item, friends = reference.plain_views(tiny)
        vectors, frev = reference.plain_profiles(profiles)
        for u in range(5):
            for i in range(4):
                raters, _, _ = tiny.ratings.raters_of(i)
                for v in raters:
                    v = int(v)
                    if v == u:
                        continue
                    fused = fuse_trust(
                        profiles, tiny.social, cfg.facet_weights, u, v, i)
                    assert trust_only.influence(u, v, i) == pytest.approx(
                        fused, abs=1e-12)
                value, is_model = reference.naive_predict(
                    by_user, by_item, friends, vectors, frev, cfg, u, i)
                got = trust_only.predict(u, i)
                assert got.value == pytest.approx(value, abs=1e-12)
                assert (got.kind is PredictionKind.MODEL) == is_model


def test_metric_golden_values(capsys):
    """The hand-derived metric values hold exactly."""
    with announce(capsys, "metric golden values"):
        acc = accuracy_metrics([(3.0, 3.0), (5.0, 3.0)])
        assert acc.rmse == math.sqrt(2.0)
        assert acc.mae == 1.0

        def rec(user, *items):
            return RecommendationList(
                user,
                tuple(RecItem(i, 0.0, PredictionKind.MODEL) for i in items))

        ranked = ranking_metrics(
            [rec(0, *range(10))], {0: {0, 1, 2, 3, 90, 91, 92, 93}}, k=10)
        assert ranked.precision == 0.4
        assert ranked.recall == 0.5
        assert ranked.f1 == pytest.approx(4 / 9, abs=1e-15)

        assert ranking_metrics([rec(0, 7, 8, 3)], {0: {3, 4}}, k=10).mrr == 1 / 3
        assert ranking_metrics([rec(0, 7, 8)], {0: {3}}, k=10).mrr == 0.0
        two_users = ranking_metrics(
            [rec(0, 3), rec(1, 7, 8, 5)], {0: {3}, 1: {5}}, k=10)
        assert two_users.mrr == pytest.approx((1.0 + 1 / 3) / 2, abs=1e-15)

        cats = ItemCategories(2, {0: {"a"}, 1: {"b"}})
        assert intra_diversity(rec(0, 0, 1), cats) == 1 / 3
        untagged = ItemCategories(10)
        assert intra_diversity(rec(0, *range(10)), untagged) == 9 / 11


def test_indicator_normalization(capsys):
    """1000 random tables: indicators stay in [0, 1], best users hit 1."""
    with announce(capsys, "indicator normalization"):
        rng = np.random.default_rng(703)
        datasets = [random_dataset(rng) for _ in range(50)]
        for trial in range(1000):
            kind = trial % 4
            if kind == 0:
                counts = rng.integers(0, 100, size=int(rng.integers(1, 40)))
                got = indicator_fendors(counts)
                assert got.min() >= 0.0 and got.max() <= 1.0
                if counts.max() > 0:
                    assert got[counts.argmax()] == 1.0
            elif kind == 1:
                sums = rng.integers(0, 500, size=int(rng.integers(1, 40)))
                got = indicator_fcontr(sums)
                assert got.min() >= 0.0 and got.max() <= 1.0
                if sums.max() > 0:
                    assert got[sums.argmax()] == 1.0
            elif kind == 2:
                n = int(rng.integers(1, 40))
                apprec = rng.integers(0, 100, size=n)
                contrib = rng.integers(0, 20, size=n)
                got = indicator_visibility(apprec, contrib)
                assert got.min() >= 0.0 and got.max() <= 1.0
                assert (got[contrib == 0] == 0.0).all()
            else:
                d = datasets[trial % len(datasets)]
                scores = indicator_frev(d.review_feedback)
                assert scores.min() >= 0.0 and scores.max() <= 1.0
                totals = d.review_feedback.totals()
                item_max = np.array([totals[d.ratings.raters_of(i)[2]].max(initial=0)
                                     for i in range(d.num_items)])
                best = totals == item_max[d.ratings.item_idx]
                assert (scores[best & (totals > 0)] == 1.0).all()

        # fused trust rises (weakly) with any single facet increase
        tiny = build_tiny()
        base = build_yelp_profiles(tiny)
        facets = sorted(base.vectors)
        for _ in range(200):
            w = FacetWeights(
                {n: float(rng.random()) for n in facets} | {"frev": 0.5})
            v = int(rng.integers(0, 5))
            name = facets[int(rng.integers(len(facets)))]
            vectors = {n: vec.copy() for n, vec in base.vectors.items()}
            before = fuse_trust(base, tiny.social, w, 0, v, 0)
            vectors[name][v] = min(1.0, vectors[name][v] + float(rng.random()))
            bumped = TrustProfiles(tiny.ratings, vectors, base.frev.copy())
            after = fuse_trust(bumped, tiny.social, w, 0, v, 0)
            assert after >= before - 1e-12


def test_fold_partition_properties(capsys):
    """100 random sizes: exact partition, balance within 1, seeded."""
    with announce(capsys, "fold partition properties"):
        rng = np.random.default_rng(704)
        for _ in range(100):
            n = int(rng.integers(2, 5000))
            f = int(rng.integers(2, min(n, 20) + 1))
            seed = int(rng.integers(1 << 31))
            labels = fold_assignment(n, f, seed)
            assert labels.shape == (n,)
            assert labels.min() >= 0 and labels.max() < f
            sizes = np.bincount(labels, minlength=f)
            assert sizes.sum() == n
            assert sizes.max() - sizes.min() <= 1
            again = fold_assignment(n, f, seed)
            assert (labels == again).all()


def test_large_scale_runtime_and_memory(capsys):
    """Ten-fold evaluation of the full model at realistic corpus size."""
    with announce(capsys, "large-scale runtime and memory"):
        started = time.monotonic()
        d = synth_corpus(
            num_users=25_000, num_items=75_000,
            num_ratings=1_300_000, num_edges=300_000, seed=705)
        plan = split_folds(d, 10, seed=17)
        built = time.monotonic()
        report = run_experiment(
            d, [make_config("MTR", beta=0.1)], plan, k=10, tau=4.0, workers=1)
        ran = time.monotonic()
        elapsed = ran - started

        row = report.row("MTR")
        assert row.model_predictions + row.fallback_predictions > 1_000_000
        assert 0.5 < row.rmse < 2.5
        assert 0.0 <= row.user_coverage <= 1.0

        peak = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) * 1024  # ru_maxrss is in KiB on Linux
        with capsys.disabled():
            print(f"  [large-scale] {elapsed:.1f}s elapsed: build {built - started:.1f}s, "
                  f"run_experiment {ran - built:.1f}s; "
                  f"peak rss {peak / GIB:.2f} GiB")
        assert elapsed < 7200.0, f"took {elapsed:.1f}s"
        assert peak < 8 * GIB, f"peak rss {peak / GIB:.2f} GiB"


def _published_corpus_eval(d, tau=4.0):
    configs = [
        make_config("U2UCF"),
        make_config("MTR", beta=0.1),
        make_config("MTRTrust2", beta=0.1),
    ]
    plan = split_folds(d, 10, seed=17)
    return run_experiment(d, configs, plan, k=10, tau=tau, workers=1)


def test_published_yelp_corpus(capsys):
    """Optional: counts and error-ordering trends on the real Yelp dump."""
    with announce(capsys, "published yelp corpus"):
        root = os.environ.get("YELP_DATASET_DIR")
        if not root:
            pytest.skip("YELP_DATASET_DIR not set")
        from trustcf import ingest_yelp
        from trustcf.cli import _YELP_NAMES, _find
        from trustcf.ingest import restaurants_food_closure
        from pathlib import Path

        base = Path(root)
        raw = ingest_yelp(
            _find(base, _YELP_NAMES["business"], "business"),
            _find(base, _YELP_NAMES["review"], "review"),
            _find(base, _YELP_NAMES["user"], "user"),
            _find(base, _YELP_NAMES["tip"], "tip"),
        )
        d = apply_filters(raw, 20, restaurants_food_closure())
        stats = compute_stats(d)
        assert (stats.num_users, stats.num_items) == (26_600, 76_317)
        assert stats.num_ratings == 1_326_409
        assert stats.num_friend_relations == 645_020
        friends_row = next(r for r in stats.rows if r.name == "friends per user")
        assert friends_row.mean == pytest.approx(24.2488, abs=1e-3)

        report = _published_corpus_eval(d)
        u2ucf = report.row("U2UCF").rmse
        assert report.row("MTRTrust2").rmse < u2ucf
        assert report.row("MTR").rmse < u2ucf
        assert abs(u2ucf - 1.0518) <= 0.05
        assert abs(report.row("MTRTrust2").rmse - 1.0233) <= 0.05
        assert abs(report.row("MTR").rmse - 1.045) <= 0.05


def test_published_librarything_corpus(capsys):
    """Optional: error-ordering trend on the real LibraryThing dump."""
    with announce(capsys, "published librarything corpus"):
        root = os.environ.get("LIBRARYTHING_DATASET_DIR")
        if not root:
            pytest.skip("LIBRARYTHING_DATASET_DIR not set")
        from trustcf import ingest_librarything
        from trustcf.cli import _LT_FRIEND_NAMES, _LT_REVIEW_NAMES, _find
        from pathlib import Path

        base = Path(root)
        raw = ingest_librarything(
            _find(base, _LT_REVIEW_NAMES, "review"),
            _find(base, _LT_FRIEND_NAMES, "friend"),
        )
        d = apply_filters(raw, 20, None)
        report = _published_corpus_eval(d)
        assert report.row("U2UCF").rmse < report.row("MTRTrust2").rmse
