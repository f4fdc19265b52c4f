"""Fold splitting, metrics and the cross-validation driver."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import pickle
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from trustcf import (
    FacetWeights,
    FoldPlan,
    InfluenceConfig,
    ItemCategories,
    PredictionKind,
    RecItem,
    RatingStore,
    RecommendationList,
    SocialGraph,
    TrainedModel,
    TrustProfiles,
    accuracy_metrics,
    build_profiles,
    canonical_load,
    canonical_save,
    fold_assignment,
    intra_diversity,
    make_config,
    make_dataset,
    ranking_metrics,
    run_experiment,
    split_folds,
    top_k,
    user_coverage,
)
from trustcf import evaluation
from trustcf.cli import _build_config
from trustcf.dataset import CounterOverflow
from trustcf.errors import MalformedRecord, TrustcfError
from trustcf.evaluation import FoldMetrics, ReportRow

import reference
from conftest import build_tiny, random_dataset, wide_categories
from test_recommender import micro_model, oracle_configs

# the benchmark's workloads, read as they are: corpora, configurations, plan
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

MODEL = PredictionKind.MODEL


class TestFoldAssignment:
    def test_sizes_differ_by_at_most_one(self):
        labels = fold_assignment(1005, 10, seed=3)
        sizes = np.bincount(labels, minlength=10)
        assert sorted(sizes) == [100] * 5 + [101] * 5

    def test_every_rating_gets_one_fold(self):
        labels = fold_assignment(97, 7, seed=0)
        assert labels.shape == (97,)
        assert labels.min() >= 0 and labels.max() < 7

    def test_deterministic_per_seed(self):
        a = fold_assignment(500, 10, seed=8)
        b = fold_assignment(500, 10, seed=8)
        c = fold_assignment(500, 10, seed=9)
        assert (a == b).all()
        assert (a != c).any()

    def test_balance_property(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(2, 2000))
            f = int(rng.integers(2, min(n, 15) + 1))
            sizes = np.bincount(fold_assignment(n, f, int(rng.integers(1 << 30))),
                                minlength=f)
            assert sizes.sum() == n
            assert sizes.max() - sizes.min() <= 1

    def test_too_few_folds(self):
        with pytest.raises(ValueError):
            fold_assignment(10, 1, seed=0)

    def test_plan_views(self, tiny):
        plan = split_folds(tiny, 5, seed=2)
        assert sorted(plan.fold_sizes()) == [2, 2, 3, 3, 3]
        seen = np.concatenate([plan.test_indices(f) for f in range(5)])
        assert sorted(seen) == list(range(13))
        with pytest.raises(ValueError):
            plan.test_indices(5)

    @pytest.mark.parametrize("labels, bad", [
        ([0, 1, 2, -1, 1], -1), ([0, 3, 2, -1], 3), ([0, 1, 2, 7], 7),
    ], ids=["negative", "num-folds", "beyond"])
    def test_plan_rejects_a_label_out_of_range(self, labels, bad):
        # -1 would alias the last fold, and a label past it fail in evaluation
        with pytest.raises(ValueError, match=f"^fold handle out of range: {bad}$"):
            FoldPlan(seed=0, num_folds=3, assignment=np.array(labels))

    @pytest.mark.parametrize("assignment", [
        np.array([0.0, 1.0, 2.0]), np.array([[0, 1, 2]]), np.array([True, False, True]),
    ], ids=["float", "2-d", "bool"])
    def test_plan_rejects_an_assignment_that_is_not_1d_integer(self, assignment):
        with pytest.raises(ValueError, match="1-d array of integer labels"):
            FoldPlan(seed=0, num_folds=3, assignment=assignment)

    def test_assignment_is_frozen(self, tiny):
        plan = split_folds(tiny, 5, seed=2)
        with pytest.raises(ValueError):
            plan.assignment[0] = 3


class TestTopK:
    def test_orders_by_score_then_handle(self):
        model = micro_model(beta=0.0)
        got = top_k(model, 0, [2, 0, 1, 2], k=10)
        assert got.user == 0
        scores = [e.score for e in got.items]
        assert scores == sorted(scores, reverse=True)
        assert len(got.items) == 3  # the duplicate candidate collapsed

    def test_truncates(self):
        model = micro_model(beta=0.0)
        got = top_k(model, 0, [0, 1, 2], k=1)
        assert len(got.items) == 1

    def test_k_must_be_positive(self):
        model = micro_model(beta=0.0)
        with pytest.raises(ValueError):
            top_k(model, 0, [0], k=0)

    def test_a_candidate_that_is_not_an_integer_is_rejected(self):
        model = micro_model(beta=0.0)
        for bad, shown in ((1.7, "1.7"), ("1", "'1'"), (True, "True")):
            with pytest.raises(IndexError, match=f"item handle is not an integer: {shown}"):
                top_k(model, 0, [bad], k=2)
            # beside integers, which np.unique would make floats alike
            with pytest.raises(IndexError, match=f"^item handle is not an integer: {shown}$"):
                top_k(model, 0, [0, bad], k=2)
        assert top_k(model, 0, iter([]), k=1).items == ()

    def test_tie_breaks_ascending(self):
        # two fallback-scored items tie exactly on the user mean
        model = micro_model(beta=0.0)
        rec = top_k(model, 0, [0, 1], k=2)
        assert rec.items[0].score >= rec.items[1].score
        if rec.items[0].score == rec.items[1].score:
            assert rec.items[0].item < rec.items[1].item


    def test_exact_ties_rank_by_ascending_item(self):
        # items 2-5 have no raters, so all four fall back to the mean 3.0
        store = RatingStore(2, 6, [0, 0, 1], [0, 1, 0], [2.0, 4.0, 3.0])
        profiles = TrustProfiles(store, {}, np.zeros(len(store)))
        model = TrainedModel(store, profiles, SocialGraph(2, []), make_config("U2UCF"))
        rec = top_k(model, 0, [5, 3, 4, 2], k=3)
        assert rec.item_handles() == (2, 3, 4)
        assert all(e.kind is PredictionKind.FALLBACK for e in rec.items)
        assert [e.score for e in rec.items] == [3.0, 3.0, 3.0]


class TestAccuracyMetrics:
    def test_golden_pair(self):
        got = accuracy_metrics([(3.0, 3.0), (5.0, 3.0)])
        assert got.rmse == pytest.approx(np.sqrt(2.0))
        assert got.mae == pytest.approx(1.0)

    def test_single_prediction(self):
        got = accuracy_metrics([(3.5, 5.0)])
        assert got == pytest.approx((1.5, 1.5))

    def test_empty_input(self):
        got = accuracy_metrics([])
        assert math.isnan(got.rmse) and math.isnan(got.mae)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pairs = list(zip(rng.uniform(1, 5, n), rng.uniform(1, 5, n)))
            m = accuracy_metrics(pairs)
            assert m.rmse >= m.mae - 1e-12


def rec(user, *items):
    return RecommendationList(
        user=user, items=tuple(RecItem(i, 0.0, MODEL) for i in items))


class TestRankingMetrics:
    def test_precision_recall_f1(self):
        lists = [rec(0, *range(10))]
        relevance = {0: {0, 1, 2, 3, 90, 91, 92, 93}}
        got = ranking_metrics(lists, relevance, k=10)
        assert got.precision == pytest.approx(0.4)
        assert got.recall == pytest.approx(0.5)
        assert got.f1 == pytest.approx(4 / 9)

    def test_mrr_first_hit(self):
        lists = [rec(0, 7, 8, 3, 4)]
        got = ranking_metrics(lists, {0: {3, 4}}, k=10)
        assert got.mrr == pytest.approx(1 / 3)

    def test_mrr_no_hit(self):
        got = ranking_metrics([rec(0, 7, 8)], {0: {3}}, k=10)
        assert got.mrr == 0.0

    def test_macro_average(self):
        lists = [rec(0, 1, 2), rec(1, 5, 6)]
        relevance = {0: {1, 2}, 1: {9}}
        got = ranking_metrics(lists, relevance, k=2)
        assert got.precision == pytest.approx((1.0 + 0.0) / 2)
        assert got.recall == pytest.approx((1.0 + 0.0) / 2)
        assert got.mrr == pytest.approx((1.0 + 0.0) / 2)

    def test_empty_list_excluded_entirely(self):
        lists = [rec(0, 1), RecommendationList(user=1, items=())]
        got = ranking_metrics(lists, {0: {1}, 1: {5}}, k=3)
        assert got.precision == 1.0
        assert got.recall == 1.0

    def test_empty_relevant_set_excluded_from_recall_only(self):
        lists = [rec(0, 1, 2), rec(1, 5, 6)]
        got = ranking_metrics(lists, {0: {1, 2}}, k=2)
        assert got.precision == pytest.approx(0.5)
        assert got.recall == pytest.approx(1.0)  # only user 0 counts

    def test_k_truncation(self):
        lists = [rec(0, 1, 2, 3, 4)]
        got = ranking_metrics(lists, {0: {3, 4}}, k=2)
        assert got.precision == 0.0

    def test_no_users_at_all(self):
        got = ranking_metrics([], {}, k=5)
        assert all(math.isnan(value) for value in got)

    def test_k_must_be_positive(self):
        # k=-1 would drop each list's last entry, k=0 read every metric NaN
        assert ranking_metrics([rec(0, 1, 2)], {0: {2}}, k=2).precision == 0.5
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be positive"):
                ranking_metrics([rec(0, 1, 2)], {0: {2}}, k=k)


class TestIntraDiversity:
    def test_disjoint_pair(self):
        cats = ItemCategories(2, {0: {"a"}, 1: {"b"}})
        assert intra_diversity(rec(0, 0, 1), cats) == pytest.approx(1 / 3)

    def test_identical_pair(self):
        cats = ItemCategories(2, {0: {"a"}, 1: {"a"}})
        assert intra_diversity(rec(0, 0, 1), cats) == 0.0

    def test_partial_overlap(self):
        cats = ItemCategories(2, {0: {"a", "b"}, 1: {"b"}})
        expect = (1 - 1 / np.sqrt(2)) / 3
        assert intra_diversity(rec(0, 0, 1), cats) == pytest.approx(expect)

    def test_single_item(self):
        cats = ItemCategories(1, {0: {"a"}})
        assert intra_diversity(rec(0, 0), cats) == 0.0

    def test_empty_list(self):
        cats = ItemCategories(1)
        assert math.isnan(intra_diversity(RecommendationList(0, ()), cats))

    def test_untagged_items_hit_the_upper_bound(self):
        for k in (2, 3, 5, 8):
            cats = ItemCategories(k)
            got = intra_diversity(rec(0, *range(k)), cats)
            assert got == pytest.approx((k - 1) / (k + 1))

    def test_bound_property(self):
        rng = np.random.default_rng(63)
        pool = ["a", "b", "c", "d"]
        for _ in range(100):
            k = int(rng.integers(1, 9))
            tags = {
                i: {pool[int(t)] for t in
                    rng.choice(4, size=int(rng.integers(0, 4)), replace=False)}
                for i in range(k)
            }
            cats = ItemCategories(k, tags)
            got = intra_diversity(rec(0, *range(k)), cats)
            assert 0.0 <= got <= (k - 1) / (k + 1) + 1e-12


class TestUserCoverage:
    def test_fraction(self):
        results = {
            0: [PredictionKind.MODEL, PredictionKind.FALLBACK],
            1: [PredictionKind.FALLBACK],
        }
        assert user_coverage(results, [0, 1, 2]) == pytest.approx(1 / 3)

    def test_no_test_users(self):
        assert math.isnan(user_coverage({}, []))


class TestRunExperiment:
    def make_report(self, workers=1, seed=5):
        tiny = build_tiny()
        configs = [make_config("U2UCF"), make_config("MTR", beta=0.1)]
        plan = split_folds(tiny, 3, seed=seed)
        return run_experiment(tiny, configs, plan, k=2, tau=4.0, workers=workers)

    def test_report_shape(self):
        report = self.make_report()
        assert report.provenance == "synthetic"
        assert report.num_folds == 3
        assert [r.config for r in report.rows] == ["U2UCF", "MTR"]
        assert all(len(r.folds) == 3 for r in report.rows)
        assert report.row("MTR").beta == 0.1
        with pytest.raises(KeyError):
            report.row("nope")

    def test_tsv_layout(self):
        text = self.make_report().to_tsv()
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].split("\t")[0] == "config"
        fields = lines[1].split("\t")
        assert fields[0] == "U2UCF"
        assert fields[1] == "1.00"  # pure baseline pins beta
        float(fields[2])  # parses

    def test_deterministic(self):
        a = self.make_report().to_summary_json()
        b = self.make_report().to_summary_json()
        assert a == b

    def test_workers_do_not_change_results(self):
        serial = self.make_report(workers=1).to_summary_json()
        parallel = self.make_report(workers=2).to_summary_json()
        assert serial == parallel

    def test_duplicate_rows_rejected(self, tiny):
        plan = split_folds(tiny, 3, seed=1)
        cfgs = [make_config("MTR", beta=0.1), make_config("MTR", beta=0.1)]
        with pytest.raises(ValueError, match="duplicate"):
            run_experiment(tiny, cfgs, plan)

    def test_empty_configuration_list_rejected(self, tiny):
        plan = split_folds(tiny, 3, seed=1)
        with pytest.raises(ValueError, match="no configuration"):
            run_experiment(tiny, [], plan)

    def test_workers_must_be_positive(self, tiny):
        plan = split_folds(tiny, 3, seed=1)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers must be positive"):
                run_experiment(tiny, [make_config("MTR")], plan, workers=workers)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_tau_must_be_finite(self, tiny, tau):
        # tau=nan marks no item relevant and reads as precision 0, a real-looking report
        plan = split_folds(tiny, 3, seed=1)
        with pytest.raises(ValueError, match=f"tau must be a finite number, got {tau}"):
            run_experiment(tiny, [make_config("MTR")], plan, tau=tau)

    def test_plan_must_match_dataset(self, tiny):
        rng = np.random.default_rng(64)
        other = random_dataset(rng)
        plan = split_folds(other, 3, seed=1)
        if plan.assignment.shape == (len(tiny.ratings),):
            return  # rare size collision; nothing to assert
        with pytest.raises(ValueError):
            run_experiment(tiny, [make_config("MTR")], plan)

    def test_prediction_counts_add_up(self, tiny):
        """model + fallback predictions = held-out ratings of usable users."""
        plan = split_folds(tiny, 3, seed=5)
        report = run_experiment(tiny, [make_config("MTR")], plan, k=2)
        store = tiny.ratings
        expect = 0
        for fold in range(3):
            test = set(int(p) for p in plan.test_indices(fold))
            for u in range(store.num_users):
                positions = [
                    p for p in range(len(store)) if int(store.user_idx[p]) == u
                ]
                held = [p for p in positions if p in test]
                if held and len(held) < len(positions):
                    expect += len(held)
        row = report.row("MTR")
        assert row.model_predictions + row.fallback_predictions == expect

    def test_skipped_users_counted(self):
        tiny = build_tiny()
        plan = split_folds(tiny, 3, seed=5)
        report = run_experiment(tiny, [make_config("U2UCF")], plan, k=2)
        # erin rated once, so the fold holding that rating must skip her
        skipped = sum(m.skipped_users for m in report.row("U2UCF").folds)
        assert skipped >= 1
        for m in report.row("U2UCF").folds:
            assert m.ranked_users == m.test_users - m.skipped_users

    def test_trustless_config_matches_pure_baseline(self):
        """With no usable facets, influence is a scaled similarity.

        Scaling every influence by the same constant changes neither the
        neighbor ranking nor the normalized prediction, so the report
        rows must agree metric for metric.
        """
        rng = np.random.default_rng(65)
        d = random_dataset(rng, max_users=25, max_items=15, max_ratings=120)
        scaled = InfluenceConfig(
            name="scaled", similarity_mode="pearson",
            facet_weights=FacetWeights({}), beta=0.37)
        plan = split_folds(d, 4, seed=9)
        report = run_experiment(d, [make_config("U2UCF"), scaled], plan, k=3)
        a, b = report.rows
        for name in ("precision", "recall", "f1", "rmse", "mae", "mrr",
                     "diversity", "user_coverage"):
            assert getattr(a, name) == pytest.approx(
                getattr(b, name), abs=1e-12, nan_ok=True)
        assert a.model_predictions == b.model_predictions

    def test_summary_json_is_valid(self):
        import json

        payload = json.loads(self.make_report().to_summary_json())
        assert payload["num_folds"] == 3
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["config"] == "U2UCF"

    @pytest.mark.parametrize("counts, recorded", [((5, 5), 5), ((5, 50), None)],
                             ids=["uniform", "mixed"])
    def test_summary_records_the_neighbor_count_only_when_shared(self, tiny, counts, recorded):
        plan = split_folds(tiny, 3, seed=1)
        configs = [make_config("U2UCF", neighbor_count=counts[0]),
                   make_config("MTR", neighbor_count=counts[1])]
        report = run_experiment(tiny, configs, plan, k=2)
        assert report.neighbor_count == recorded
        assert json.loads(report.to_summary_json())["neighbor_count"] == recorded

    def test_undefined_error_metrics_are_reported_as_undefined(self):
        """A config with no model prediction has no RMSE or MAE, not 0."""
        rng = np.random.default_rng(67)
        d = random_dataset(rng, max_users=30, max_items=20, max_ratings=200)
        d = dataclasses.replace(d, social=SocialGraph(d.num_users, []))
        plan = split_folds(d, 3, seed=4)
        report = run_experiment(
            d, [make_config("U2USocial"), make_config("U2UCF")], plan, k=3)
        social, ratings = report.rows
        assert social.model_predictions == 0
        assert social.fallback_predictions > 0
        assert math.isnan(social.rmse) and math.isnan(social.mae)
        assert ratings.model_predictions > 0 and not math.isnan(ratings.rmse)

        header, first, second = report.to_tsv().splitlines()
        columns = header.split("\t")
        fields = dict(zip(columns, first.split("\t")))
        assert fields["rmse"] == fields["mae"] == "-"
        assert float(fields["user_coverage"]) == 0.0
        assert dict(zip(columns, second.split("\t")))["rmse"] != "-"
        row = json.loads(report.to_summary_json())["rows"][0]
        assert math.isnan(row["rmse"]) and math.isnan(row["mae"])


def test_fold_metrics_match_naive_predictions():
    """Every fold's counts and errors, rebuilt from the naive oracle."""
    rng = np.random.default_rng(68)
    checked = 0
    for _ in range(12):
        d = random_dataset(rng, max_users=30, max_items=20, max_ratings=250)
        configs = oracle_configs(rng)
        folds = int(rng.integers(2, 6))
        plan = split_folds(d, folds, seed=int(rng.integers(1 << 30)))
        report = run_experiment(d, configs, plan, k=3)
        vectors, frev = reference.plain_profiles(build_profiles(d))
        store = d.ratings
        for fold in range(folds):
            test = plan.test_indices(fold)
            by_user, by_item, friends = reference.plain_views(d, test)
            for row, cfg in zip(report.rows, configs):
                errors = []
                fallbacks = 0
                for p in test.tolist():
                    u, i = int(store.user_idx[p]), int(store.item_idx[p])
                    got = reference.naive_predict(
                        by_user, by_item, friends, vectors, frev, cfg, u, i)
                    if got is None:
                        continue
                    value, is_model = got
                    if is_model:
                        errors.append(value - float(store.value[p]))
                    else:
                        fallbacks += 1
                m = row.folds[fold]
                assert m.model_predictions == len(errors), (cfg.name, fold)
                assert m.fallback_predictions == fallbacks, (cfg.name, fold)
                if errors:
                    rmse = math.sqrt(sum(e * e for e in errors) / len(errors))
                    mae = sum(abs(e) for e in errors) / len(errors)
                    assert abs(m.rmse - rmse) <= 1e-9
                    assert abs(m.mae - mae) <= 1e-9
                    checked += 1
                else:
                    assert math.isnan(m.rmse) and math.isnan(m.mae)
    assert checked > 100


def _assert_same_metrics(got, want, where):
    for name, expected in want.items():
        value = getattr(got, name)
        if isinstance(expected, int):
            assert value == expected, (where, name)
        elif math.isnan(expected):
            assert math.isnan(value), (where, name)
        else:
            assert abs(value - expected) <= 1e-9, (where, name, value, expected)


def test_report_matches_naive_evaluation():
    """Every ReportRow and FoldMetrics field, rebuilt from the naive oracle."""
    rng = np.random.default_rng(69)
    fold_fields = {f.name for f in dataclasses.fields(FoldMetrics)} - {"fold"}
    row_fields = {f.name for f in dataclasses.fields(ReportRow)} - {
        "config", "beta", "folds"}
    seen = dict(skipped=0, recall_less=0, hit=0, tagged_pair=0)
    for _ in range(20):
        d = random_dataset(rng, max_users=25, max_items=15, max_ratings=200)
        configs = [
            make_config("U2UCF"),
            make_config("U2USocial"),
            make_config("MTR", beta=float(rng.random())),
            make_config("MTRTrust2", beta=float(rng.random()), neighbor_count=2),
        ]
        folds = int(rng.integers(2, 6))
        k = int(rng.integers(1, 6))
        tau = float(rng.choice([3.0, 4.0, 4.5]))
        plan = split_folds(d, folds, seed=int(rng.integers(1 << 30)))
        report = run_experiment(d, configs, plan, k=k, tau=tau)
        vectors, frev = reference.plain_profiles(build_profiles(d))
        for row, cfg in zip(report.rows, configs):
            want_folds = []
            for fold in range(folds):
                want = reference.naive_fold(
                    d, vectors, frev, cfg, plan.test_indices(fold).tolist(), k, tau)
                assert set(want) == fold_fields
                m = row.folds[fold]
                assert m.fold == fold
                _assert_same_metrics(m, want, (cfg.name, fold))
                want_folds.append(want)
                seen["skipped"] += want["skipped_users"]
                seen["recall_less"] += want["ranked_users"] - want["recall_users"]
                seen["hit"] += want["mrr"] > 0
                seen["tagged_pair"] += 0.0 < want["diversity"]
            want_row = reference.naive_row(want_folds)
            assert set(want_row) == row_fields
            _assert_same_metrics(row, want_row, cfg.name)
    assert min(seen.values()) > 5, seen


@pytest.mark.parametrize("workload, seed", [
    pytest.param("eval-mtr", 0, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "ROADMAP item 9: a correlation that is exactly 0 rounds positive, so "
            "U2UCF fold 5 counts 325 model predictions where the oracle counts 324"))),
    ("eval-mtr", 1),
    ("eval-social", 1),
])
def test_bench_corpus_matches_naive_evaluation(tmp_path, workload, seed):
    """A benchmark corpus, saved and reloaded, evaluated as its workload runs
    it: every FoldMetrics and ReportRow field agrees with the naive oracle."""
    w = workloads.WORKLOADS[workload]
    d, plan = workloads.setup(workloads.prepare(w, seed, tmp_path))
    report = workloads.evaluate(w, d, plan)
    vectors, frev = reference.plain_profiles(build_profiles(d))
    for row, (name, beta) in zip(report.rows, w.configs, strict=True):
        cfg = make_config(name, beta)
        want = [
            reference.naive_fold(d, vectors, frev, cfg, plan.test_indices(fold).tolist(),
                                 workloads.K, workloads.TAU)
            for fold in range(plan.num_folds)
        ]
        for m, naive in zip(row.folds, want, strict=True):
            _assert_same_metrics(m, naive, (name, m.fold))
        _assert_same_metrics(row, reference.naive_row(want), name)


def shuffled_corpus(rng):
    """A make_dataset corpus whose ids come in shuffled order: "u7" before
    "u12", both numerically and in every table's rows."""
    users = [f"u{n}" for n in rng.permutation(30)]
    items = [f"i{n}" for n in rng.permutation(20)]
    cells = rng.choice(len(users) * len(items), size=160, replace=False)
    ratings = [(users[c // len(items)], items[c % len(items)], float(rng.integers(1, 6)))
               for c in cells]
    return make_dataset(
        provenance="synthetic",
        ratings=ratings,
        friends=[(users[a], users[b]) for a, b in rng.integers(0, len(users), size=(40, 2))],
        user_counters={"fans": {u: int(rng.integers(0, 20)) for u in users},
                       "elite_years": {u: int(rng.integers(0, 3)) for u in users[:10]}},
        review_counters={"useful": {(u, i): int(rng.integers(0, 4)) for u, i, _ in ratings}},
        categories={i: {f"tag{t}" for t in rng.choice(5, size=2)} for i in items},
    )


@pytest.mark.parametrize("seed", range(3))
def test_canonical_reload_evaluates_equally(tmp_path, seed):
    """Handles follow id order whatever order the ids come in, so a dataset
    and its canonical reload split and rank alike, tie-breaks included."""
    d = shuffled_corpus(np.random.default_rng(seed))
    assert list(d.users) == sorted(d.users) and list(d.items) == sorted(d.items)
    canonical_save(d, tmp_path / "d")
    twin = canonical_load(tmp_path / "d")
    configs = [make_config("U2UCF"), make_config("MTR", beta=0.1)]
    for fold_seed in range(3):
        got, want = (run_experiment(x, configs, split_folds(x, 2, seed=fold_seed), k=5)
                     for x in (twin, d))
        assert got.to_tsv() == want.to_tsv()
        assert got.to_summary_json() == want.to_summary_json()


def test_undefined_fold_ranking_metrics_read_nan():
    """A fold with no ranked user defines no ranking metric, and a fold
    whose ranked users hold no relevant item defines no recall: each reads
    NaN, as in the oracle, and the row averages the folds that define one."""
    d = random_dataset(np.random.default_rng(9))
    vectors, frev = reference.plain_profiles(build_profiles(d))
    config = make_config("U2UCF")
    assignment = np.arange(len(d.ratings)) % 2
    assignment[np.flatnonzero(d.ratings.value < 4.0)[::3]] = 2
    rows = []
    for empty in (0, 2, 6):
        plan = FoldPlan(seed=0, num_folds=3 + empty, assignment=assignment.copy())
        row = run_experiment(d, [config], plan, k=3).rows[0]
        want = [
            reference.naive_fold(d, vectors, frev, config, plan.test_indices(f).tolist(), 3, 4.0)
            for f in range(plan.num_folds)
        ]
        for m, w in zip(row.folds, want):
            _assert_same_metrics(m, w, (empty, m.fold))
        _assert_same_metrics(row, reference.naive_row(want), empty)
        no_relevant = row.folds[2]
        assert no_relevant.ranked_users > 0 and no_relevant.recall_users == 0
        assert no_relevant.precision == 0.0 and math.isnan(no_relevant.recall)
        for m in row.folds[3:]:
            assert m.test_users == 0
            for value in (m.precision, m.recall, m.f1, m.mrr, m.diversity):
                assert math.isnan(value)
        assert row.recall == np.mean([m.recall for m in row.folds[:2]])
        rows.append(dataclasses.replace(row, folds=()))
    assert rows[0] == rows[1] == rows[2]


def _comparable(value):
    """A report row as nested tuples, NaN made equal to NaN; else exact."""
    if isinstance(value, tuple):
        return tuple(_comparable(v) for v in value)
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value


def _block_costs(monkeypatch) -> list[np.ndarray]:
    """Records, for each block the evaluation scores, the cost of each of
    its users in order: its slots plus their candidate entries."""
    blocks: list[np.ndarray] = []
    real = evaluation.block_candidates

    def recording(store, slot_users, *rest):
        c = real(store, slot_users, *rest)
        _, user_at = np.unique(slot_users, return_inverse=True)  # users ascend
        slot_cost = 1 + np.bincount(c.slot_at, minlength=user_at.size)
        blocks.append(np.bincount(user_at, weights=slot_cost))
        return c

    monkeypatch.setattr(evaluation, "block_candidates", recording)
    return blocks


def test_shared_work_matches_each_config_alone(monkeypatch):
    """Configurations that share sigma, trust or a fold's training side
    report exactly what each reports when evaluated alone, under the
    default block budget and under one small enough that twelve
    configurations and one are cut into different blocks."""
    rng = np.random.default_rng(71)
    configs = [
        make_config("U2UCF"),
        make_config("MTR", beta=0.0),
        make_config("MTR", beta=0.3),
        make_config("MTR", beta=1.0),
        make_config("MTR-S", beta=0.4),
        make_config("MTR-U", beta=0.2),
        make_config("MTR-F", beta=0.5),
        make_config("MTR-FS", beta=0.6),
        make_config("MTR-US", beta=0.7),
        make_config("MTRTrust1", beta=0.4),
        make_config("MTRTrust2", beta=0.4),
        # MTR's facet weights, with relatedness over shared friends
        _build_config(
            "custom;sigma=pearson;relmode=intersection;"
            "weights=elite:1,lup:1,opleader:1,vis:1,fb:1,frev:1,rel:1", 0.3, 50),
    ]
    assert len(configs) == 12
    blocks = _block_costs(monkeypatch)
    small = 12 * 40
    for budget in (evaluation._BLOCK_CELLS, small):
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", budget)
        for _ in range(3):
            d = random_dataset(rng)
            plan = split_folds(d, 3, seed=int(rng.integers(1 << 30)))
            blocks.clear()
            alone = [run_experiment(d, [c], plan, k=3).rows[0] for c in configs]
            alone_blocks = len(blocks) / len(configs)
            for workers in (1, 2):
                blocks.clear()
                mixed = run_experiment(d, configs, plan, k=3, workers=workers)
                if budget == small and workers == 1:
                    assert len(blocks) > alone_blocks  # twelve times fewer cells per config
                for got, want in zip(mixed.rows, alone):
                    assert _comparable(dataclasses.astuple(got)) == _comparable(
                        dataclasses.astuple(want)), (got.config, got.beta, workers, budget)


def _one_row_mean(row: np.ndarray) -> float:
    """The 1-D rule: np.mean of the row's defined values; NaN when none."""
    defined = row[~np.isnan(row)]
    return float(np.mean(defined)) if defined.size else math.nan


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 62, 129, 300])
def test_row_means_equal_the_one_row_rule_bit_for_bit(width):
    """Each row of a 2-D _mean_defined is the 1-D np.mean of the row's
    defined values, bit for bit, whatever the row's NaN pattern, the array's
    layout or the other rows; NaN where a row defines nothing."""
    rng = np.random.default_rng(width)
    for _ in range(5):
        values = rng.random((12, width)) * 10.0 ** rng.integers(-3, 4, size=(12, 1))
        values[rng.random(values.shape) < rng.random((12, 1))] = np.nan
        values[3] = np.nan
        want = _comparable(tuple(_one_row_mean(row) for row in values))
        for layout in (values, np.asfortranarray(values), values[::-1][::-1]):
            got = evaluation._mean_defined(layout)
            assert got.shape == (12,) and _comparable(tuple(got.tolist())) == want
        for row in values:
            assert _comparable(evaluation._mean_defined(row)) == _comparable(_one_row_mean(row))
    assert evaluation._mean_defined(np.zeros((0, width))).shape == (0,)
    assert math.isnan(evaluation._mean_defined(np.full(width, np.nan)))


def test_wide_tag_sets_match_the_naive_evaluation():
    """Items with 130 tags, three bitset words each, shared in every word,
    and some untagged: intra_diversity equals the naive double loop, every
    fold's metrics equal the naive oracle's, and twelve configurations
    evaluated together report what each reports alone, on one worker or two."""
    rng = np.random.default_rng(79)
    configs = [make_config("U2UCF")] + [make_config("MTR", beta=b / 10) for b in range(11)]
    seen = dict(untagged=0, overlap=0, diverse_fold=0)
    for _ in range(6):
        d = random_dataset(rng, max_users=25, max_items=15, max_ratings=200)
        d = dataclasses.replace(d, categories=wide_categories(rng, d.num_items))
        tag_sets = [d.categories.of(i) for i in range(d.num_items)]
        seen["untagged"] += tag_sets.count(frozenset())
        for _ in range(40):
            size = int(rng.integers(0, min(d.num_items, 10) + 1))
            items = rng.choice(d.num_items, size=size, replace=False).tolist()
            got = intra_diversity(rec(0, *items), d.categories)
            want = reference.naive_diversity(items, tag_sets)
            assert _comparable(got) == _comparable(want), items
            seen["overlap"] += 0.0 < want < (size - 1) / (size + 1)
        plan = split_folds(d, 3, seed=int(rng.integers(1 << 30)))
        vectors, frev = reference.plain_profiles(build_profiles(d))
        alone = [run_experiment(d, [c], plan, k=4).rows[0] for c in configs]
        for row, cfg in zip(alone, configs):
            for m in row.folds:
                want = reference.naive_fold(
                    d, vectors, frev, cfg, plan.test_indices(m.fold).tolist(), 4, 4.0)
                _assert_same_metrics(m, want, (cfg.name, cfg.beta, m.fold))
                seen["diverse_fold"] += 0.0 < want["diversity"]
        for workers in (1, 2):
            mixed = run_experiment(d, configs, plan, k=4, workers=workers)
            for got, want in zip(mixed.rows, alone, strict=True):
                assert [_comparable(dataclasses.astuple(m)) for m in got.folds] == [
                    _comparable(dataclasses.astuple(m)) for m in want.folds], (got.beta, workers)
                assert _comparable(dataclasses.astuple(got)) == _comparable(
                    dataclasses.astuple(want))
    assert min(seen.values()) > 5, seen


def test_block_cells_stay_within_the_budget(monkeypatch):
    """A block's cells, configurations x (slots plus candidate entries),
    stay within the budget but for its last user's, who may run over it,
    so fewer configurations score more users per block."""
    rng = np.random.default_rng(76)
    blocks = _block_costs(monkeypatch)
    seen = dict(split=0, over=0)
    for _ in range(4):
        d = random_dataset(rng, max_users=40, max_items=15, max_ratings=300)
        plan = split_folds(d, 3, seed=int(rng.integers(1 << 30)))
        for budget in (60, 240, 1000):
            monkeypatch.setattr(evaluation, "_BLOCK_CELLS", budget)
            count = {}
            for n_cfg in (1, 2, 12):
                blocks.clear()
                configs = [make_config("MTR", beta=b / 20) for b in range(n_cfg)]
                run_experiment(d, configs, plan, k=3)
                count[n_cfg] = len(blocks)
                for cost in blocks:
                    assert n_cfg * (cost.sum() - cost[-1]) < budget, (budget, n_cfg, cost)
                    seen["over"] += n_cfg * cost.sum() > budget
                seen["split"] += len(blocks) > 1
            assert count[1] <= count[2] <= count[12]
    assert min(seen.values()) > 0, seen


def test_fold_batch_matches_each_config_alone():
    """A fold scores all configurations of a block in one batch; each
    configuration's fold metrics equal those of evaluating it alone,
    with its own neighbor count."""
    rng = np.random.default_rng(73)
    configs = [
        make_config("U2UCF", neighbor_count=5),
        make_config("MTR", beta=0.3),
        make_config("MTR", beta=0.7, neighbor_count=50),
        make_config("MTRTrust2", beta=0.4),
        make_config("U2USocial"),
    ]
    # the same configurations with other neighbor counts
    swapped = [make_config("U2UCF", neighbor_count=50), make_config("MTR", 0.7, neighbor_count=5)]
    seen = dict(u2ucf_count_matters=0, mtr_count_matters=0)
    for _ in range(4):
        d = random_dataset(rng, max_users=40, max_items=10, max_ratings=300)
        plan = split_folds(d, 3, seed=int(rng.integers(1 << 30)))
        profiles = build_profiles(d)
        for fold in range(3):
            def alone(c):
                return _comparable(dataclasses.astuple(
                    evaluation._evaluate_fold(d, profiles, [c], plan, fold, 3, 4.0)[0]))

            mixed = evaluation._evaluate_fold(d, profiles, configs, plan, fold, 3, 4.0)
            want = [alone(c) for c in configs]
            assert [_comparable(dataclasses.astuple(m)) for m in mixed] == want, fold
            seen["u2ucf_count_matters"] += alone(swapped[0]) != want[0]
            seen["mtr_count_matters"] += alone(swapped[1]) != want[2]
    assert min(seen.values()) > 0, seen


def test_pearson_configs_share_one_index_across_workers():
    """Pearson configurations with different facet weights report what
    each reports alone, on one worker or two, and a fold evaluated
    without the run's index builds the same one."""
    rng = np.random.default_rng(72)
    configs = [
        InfluenceConfig(name=f"weights{n}", similarity_mode="pearson",
                        facet_weights=FacetWeights(weights), beta=0.5)
        for n, weights in enumerate(
            ({"fb": 1.0, "frev": 1.0}, {"fb": 0.5, "frev": 1.0}, {"frev": 1.0}, {}))
    ] + [make_config("MTRTrust2", beta=0.4)]
    for _ in range(3):
        d = random_dataset(rng)
        plan = split_folds(d, 3, seed=int(rng.integers(1 << 30)))
        alone = [run_experiment(d, [c], plan, k=3).rows[0] for c in configs]
        for workers in (1, 2):
            mixed = run_experiment(d, configs, plan, k=3, workers=workers)
            for got, want in zip(mixed.rows, alone):
                assert _comparable(dataclasses.astuple(got)) == _comparable(
                    dataclasses.astuple(want)), (got.config, workers)
        profiles = build_profiles(d)
        for fold in range(3):
            own = evaluation._evaluate_fold(d, profiles, configs, plan, fold, 3, 4.0)
            assert _comparable(tuple(map(dataclasses.astuple, own))) == _comparable(
                tuple(dataclasses.astuple(row.folds[fold]) for row in mixed.rows))


def _fold_by_rebuilt_store(d, profiles, config, plan, fold, k, tau):
    """(model, fallback predictions, RMSE, precision) of one fold from the
    one-user paths of a model on the fold's training store, built anew."""
    test = plan.assignment == fold
    store = d.ratings
    train = RatingStore(store.num_users, store.num_items, store.user_idx[~test],
                        store.item_idx[~test], store.value[~test])
    model = TrainedModel(train, profiles, d.social, config)
    errors, fallbacks, lists, relevance = [], 0, [], {}
    for u in np.unique(store.user_idx[test]).tolist():
        if train.rating_count_of(u) == 0:
            continue
        mine = test & (store.user_idx == u)
        items, actual = store.item_idx[mine], store.value[mine]
        values, is_model = model.predict_items(u, items)
        errors.extend((values - actual)[is_model].tolist())
        fallbacks += int(np.count_nonzero(~is_model))
        lists.append(top_k(model, u, items, k))
        relevance[u] = frozenset(items[actual >= tau].tolist())
    rmse = math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else math.nan
    precision = ranking_metrics(lists, relevance, k).precision
    return len(errors), fallbacks, rmse, precision


def test_fold_groups_match_fold_by_fold():
    """A run scores its folds in groups, one per worker, in one pass over
    each group's users: every worker count reports exactly what each fold
    evaluated alone reports, and that agrees with a model trained on the
    fold's training store alone."""
    rng = np.random.default_rng(74)
    configs = oracle_configs(rng) + [
        make_config("MTR-FS", beta=0.2),  # no rel, no frev
        make_config("MTR", beta=0.9),
        make_config("MTRTrust1", beta=0.0),
    ]
    seen = dict(skipped=0, empty_fold=0, model=0)
    for trial in range(8):
        d = random_dataset(rng, max_users=30, max_items=20, max_ratings=250)
        profiles = build_profiles(d)
        folds = int(rng.integers(2, 7)) if trial % 4 else len(d.ratings) + 2
        assignment = fold_assignment(len(d.ratings), folds, int(rng.integers(1 << 30)))
        # every rating of one user in one fold: that user is skipped there
        assignment[d.ratings.user_idx == d.ratings.user_idx[0]] = folds - 1
        plan = FoldPlan(seed=0, num_folds=folds, assignment=assignment)
        alone = [
            evaluation._evaluate_fold(d, profiles, configs, plan, fold, 3, 4.0)
            for fold in range(folds)
        ]
        want = _comparable(tuple(tuple(map(dataclasses.astuple, m)) for m in alone))
        for workers in (1, 2, 3):
            report = run_experiment(d, configs, plan, k=3, workers=workers)
            got = _comparable(tuple(
                tuple(dataclasses.astuple(row.folds[fold]) for row in report.rows)
                for fold in range(folds)))
            assert got == want, (trial, workers)
        for fold in range(min(folds, 6)):
            for config, m in zip(configs, alone[fold]):
                model, fallback, rmse, precision = _fold_by_rebuilt_store(
                    d, profiles, config, plan, fold, 3, 4.0)
                assert (m.model_predictions, m.fallback_predictions) == (model, fallback)
                assert _comparable(m.rmse) == _comparable(rmse) or abs(m.rmse - rmse) <= 1e-12
                assert _comparable(m.precision) == _comparable(precision)
                seen["model"] += model
        seen["skipped"] += sum(m[0].skipped_users for m in alone)
        seen["empty_fold"] += sum(m[0].test_users == 0 for m in alone)
    assert min(seen.values()) > 0, seen


def test_forks_one_child_per_fold_group_after_the_first(monkeypatch):
    """The calling process scores the first fold group; each other group
    forks one child, so no more children start than there are groups."""
    forks: list[int] = []
    real = os.fork

    def counting():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    d = random_dataset(np.random.default_rng(75))
    plan = split_folds(d, 3, seed=5)
    want = run_experiment(d, [make_config("MTR")], plan, k=3)
    assert forks == []
    for workers, started in ((1, 0), (2, 1), (3, 2), (50, 2)):
        got = run_experiment(d, [make_config("MTR")], plan, k=3, workers=workers)
        assert got.to_tsv() == want.to_tsv()
        assert len(forks) == started, workers
        forks.clear()


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this process if the body outlasts ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _run_two_groups(monkeypatch, caller=None, child=None):
    """A two-fold run on two workers: this process's group (fold 0) calls
    ``caller``, and the one child's group (fold 1) calls ``child``, before
    scoring."""
    real = evaluation._evaluate_folds

    def failing(d, profiles, configs, plan, folds, *rest):
        action = (caller, child)[folds[0]]
        if action is not None:
            action()
        return real(d, profiles, configs, plan, folds, *rest)

    monkeypatch.setattr(evaluation, "_evaluate_folds", failing)
    d = random_dataset(np.random.default_rng(76))
    plan = split_folds(d, 2, seed=5)
    with _deadline(30):
        run_experiment(d, [make_config("MTR")], plan, k=3, workers=2)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _boom():
    raise ValueError("boom")


def test_child_exception_is_raised_in_the_caller(monkeypatch):
    with pytest.raises(ValueError, match="^boom$"):
        _run_two_groups(monkeypatch, child=_boom)
    _no_child_left()


def test_child_that_dies_without_a_result_raises(monkeypatch):
    with pytest.raises(RuntimeError, match="no result"):
        _run_two_groups(monkeypatch, child=lambda: os._exit(3))
    _no_child_left()


def test_caller_failure_kills_the_children(monkeypatch):
    """This process's own group fails while the child has an hour of work
    left: the child is killed and reaped, and the failure is raised."""
    with pytest.raises(ValueError, match="^boom$"):
        _run_two_groups(monkeypatch, caller=_boom, child=lambda: time.sleep(3600))
    _no_child_left()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _errors():
    """One of every TrustcfError type and of CounterOverflow, fields set."""
    fields = {MalformedRecord: ("ratings.tsv", 7, "rating out of range"),
              CounterOverflow: ("fans", 1, 3, ("compliment_more", "compliment_thx"))}
    return [cls(*fields.get(cls, (f"a {cls.__name__}",)))
            for cls in (TrustcfError, *_subclasses(TrustcfError), CounterOverflow)]


def _assert_same_error(got, want):
    assert type(got) is type(want)
    assert (str(got), got.args, vars(got)) == (str(want), want.args, vars(want))


@pytest.mark.parametrize("error", _errors(), ids=lambda e: type(e).__name__)
def test_error_survives_pickle(error):
    _assert_same_error(pickle.loads(pickle.dumps(error)), error)


@pytest.mark.parametrize("error", _errors(), ids=lambda e: type(e).__name__)
def test_child_exception_keeps_its_type_and_fields(error):
    def evaluate(group):
        if group == [1]:
            raise error
        return [group]

    with _deadline(30), pytest.raises(type(error)) as caught:
        evaluation._map_groups(evaluate, [[0], [1]])
    _assert_same_error(caught.value, error)
    _no_child_left()


def test_child_result_larger_than_a_pipe_buffer():
    """A child blocks writing a result the pipe cannot hold until the
    caller, done with its own group, reads it."""
    big = list(range(200_000))
    with _deadline(30):
        got = evaluation._map_groups(lambda group: [group, big], [[0], [1], [2]])
    assert got == [[[0], big], [[1], big], [[2], big]]
    _no_child_left()


def test_block_partition_does_not_change_results(monkeypatch):
    """One user per block, or one block per fold group: the same report."""
    import trustcf.evaluation as evaluation

    rng = np.random.default_rng(70)
    calls: list[int] = []
    real = evaluation.block_candidates

    def counting(store, slot_users, slot_items, *folds):
        calls.append(np.unique(slot_users).size)
        return real(store, slot_users, slot_items, *folds)

    monkeypatch.setattr(evaluation, "block_candidates", counting)
    seen = dict(friendless=0, skipped=0, empty_fold=0)
    for trial in range(10):
        d = random_dataset(rng, max_users=25, max_items=15, max_ratings=150)
        # cut every edge of the first few users
        lonely = set(range(min(3, d.num_users)))
        d = dataclasses.replace(d, social=SocialGraph(d.num_users, [
            (a, b) for a, b in d.social.edges() if a not in lonely and b not in lonely]))
        folds = int(rng.integers(2, 6)) if trial % 3 else len(d.ratings) + 2
        plan = split_folds(d, folds, seed=int(rng.integers(1 << 30)))
        configs = oracle_configs(rng)
        default = run_experiment(d, configs, plan, k=3)

        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", 1)
        calls.clear()
        single = run_experiment(d, configs, plan, k=3)
        assert max(calls, default=1) == 1
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", 10**12)
        calls.clear()
        whole = run_experiment(d, configs, plan, k=3)
        assert len(calls) <= 1  # one worker: one group of every fold
        monkeypatch.undo()
        monkeypatch.setattr(evaluation, "block_candidates", counting)

        for other in (single, whole):
            assert other.to_tsv() == default.to_tsv()
            assert other.to_summary_json() == default.to_summary_json()
        folds_seen = default.rows[0].folds
        seen["skipped"] += sum(m.skipped_users for m in folds_seen)
        seen["empty_fold"] += sum(m.test_users == 0 for m in folds_seen)
        seen["friendless"] += bool(lonely & set(d.ratings.user_idx.tolist()))
    assert min(seen.values()) > 0, seen
