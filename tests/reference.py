"""Deliberately naive reference recommender used as a test oracle.

Everything here is plain dicts, lists and explicit loops: no numpy, no
shared code with the package internals.  :func:`naive_predict`
recomputes facet fusion, influence blending, neighbor selection and the
mean-centered prediction from first principles; :func:`naive_fold` and
:func:`naive_row` rebuild a fold's and a report row's metrics from it.
"""

from __future__ import annotations

import math


def plain_views(dataset, test_positions=()):
    """Plain-dict training views of a dataset, minus held-out positions."""
    held = set(int(p) for p in test_positions)
    by_user: dict[int, dict[int, float]] = {}
    by_item: dict[int, dict[int, float]] = {}
    store = dataset.ratings
    for pos in range(len(store)):
        if pos in held:
            continue
        u = int(store.user_idx[pos])
        i = int(store.item_idx[pos])
        r = float(store.value[pos])
        by_user.setdefault(u, {})[i] = r
        by_item.setdefault(i, {})[u] = r
    friends = {
        u: set(int(v) for v in dataset.social.friends_of(u))
        for u in range(dataset.num_users)
    }
    return by_user, by_item, friends


def plain_profiles(profiles):
    """Facet vectors and per-review scores as plain structures."""
    vectors = {name: [float(x) for x in vec] for name, vec in profiles.vectors.items()}
    frev: dict[tuple[int, int], float] = {}
    store = profiles.store
    for pos in range(len(store)):
        frev[(int(store.user_idx[pos]), int(store.item_idx[pos]))] = float(
            profiles.frev[pos]
        )
    return vectors, frev


def naive_pearson(ru: dict, rv: dict, min_overlap: int) -> float:
    common = sorted(set(ru) & set(rv))
    if len(common) < min_overlap:
        return 0.0
    xs = [ru[i] for i in common]
    ys = [rv[i] for i in common]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    dx = sum((x - mx) ** 2 for x in xs)
    dy = sum((y - my) ** 2 for y in ys)
    den = math.sqrt(dx * dy)
    if den == 0.0:
        return 0.0
    return min(max(num / den, 0.0), 1.0)


def naive_jaccard(friends: dict, u: int, v: int) -> float:
    fu, fv = friends.get(u, set()), friends.get(v, set())
    union = len(fu | fv)
    if union == 0:
        return 0.0
    return len(fu & fv) / union


def naive_rel(friends: dict, mode: str, u: int, v: int) -> float:
    direct = 1.0 if v in friends.get(u, set()) else 0.0
    if mode == "direct":
        return direct
    if mode == "intersection":
        return 1.0 if direct else naive_jaccard(friends, u, v)
    raise ValueError(mode)


def naive_trust(vectors, frev, friends, weights, rel_mode, u, v, i):
    """Weighted facet mean; None when no usable facet has weight."""
    num = 0.0
    den = 0.0
    for name, w in weights.items():
        if w <= 0:
            continue
        if name == "rel":
            value = naive_rel(friends, rel_mode, u, v)
        elif name == "frev":
            value = frev.get((v, i), 0.0)
        elif name in vectors:
            value = vectors[name][v]
        else:
            continue
        num += w * value
        den += w
    if den == 0.0:
        return None
    return num / den


def naive_sigma(by_user, friends, mode, u, v, min_overlap):
    if mode == "pearson":
        return naive_pearson(by_user.get(u, {}), by_user.get(v, {}), min_overlap)
    if mode == "rel_direct":
        return naive_rel(friends, "direct", u, v)
    if mode == "rel_intersection":
        return naive_rel(friends, "intersection", u, v)
    raise ValueError(mode)


def naive_influence(by_user, friends, vectors, frev, cfg, u, v, i):
    sigma = naive_sigma(
        by_user, friends, cfg.similarity_mode, u, v, cfg.min_pearson_overlap
    )
    trust = naive_trust(
        vectors,
        frev,
        friends,
        dict(cfg.facet_weights.weights),
        cfg.facet_weights.rel_mode,
        u,
        v,
        i,
    )
    if trust is None:
        return cfg.beta * sigma
    return cfg.beta * sigma + (1.0 - cfg.beta) * trust


def naive_mean(ratings: dict) -> float:
    return sum(ratings.values()) / len(ratings)


def naive_predict(by_user, by_item, friends, vectors, frev, cfg, u, i):
    """(value, is_model) for user u on item i, or None if u is unknown."""
    if u not in by_user:
        return None
    mean_u = naive_mean(by_user[u])
    scored = []
    for v in by_item.get(i, {}):
        if v == u:
            continue
        infl = naive_influence(by_user, friends, vectors, frev, cfg, u, v, i)
        if infl > 0.0:
            scored.append((infl, v))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    top = scored[: cfg.neighbor_count]
    if not top:
        return min(max(mean_u, 1.0), 5.0), False
    num = 0.0
    den = 0.0
    for infl, v in top:
        num += infl * (by_item[i][v] - naive_mean(by_user[v]))
        den += abs(infl)
    value = mean_u + num / den
    return min(max(value, 1.0), 5.0), True


def naive_top_k(scored, k):
    """The k best (item, value) pairs: value descending, ties by ascending item."""
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:k]


def naive_list_metrics(items, relevant):
    """(precision, recall or None, reciprocal rank) of one non-empty ranked list."""
    hits = sum(1 for i in items if i in relevant)
    recall = hits / len(relevant) if relevant else None
    rr = 0.0
    for rank, i in enumerate(items, start=1):
        if i in relevant:
            rr = 1.0 / rank
            break
    return hits / len(items), recall, rr


def naive_diversity(items, tag_sets):
    """Mean dissimilarity over position pairs a <= b; self-pairs add 0."""
    k = len(items)
    if k == 0:
        return 0.0
    total = 0.0
    for a in range(k):
        for b in range(a + 1, k):
            ta, tb = tag_sets[items[a]], tag_sets[items[b]]
            cosine = len(ta & tb) / math.sqrt(len(ta) * len(tb)) if ta and tb else 0.0
            total += 1.0 - cosine
    return total / (k * (k + 1) / 2)


def _mean_or(values, empty):
    return sum(values) / len(values) if values else empty


def _f1(precision, recall):
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def naive_fold(dataset, vectors, frev, cfg, test_positions, k, tau):
    """Every FoldMetrics field but ``fold``, for one configuration and fold."""
    by_user, by_item, friends = plain_views(dataset, test_positions)
    store = dataset.ratings
    tag_sets = [dataset.categories.of(i) for i in range(dataset.num_items)]
    held: dict[int, list[tuple[int, float]]] = {}
    for p in test_positions:
        held.setdefault(int(store.user_idx[p]), []).append(
            (int(store.item_idx[p]), float(store.value[p])))
    errors, fallbacks, covered, skipped = [], 0, 0, 0
    precisions, recalls, rrs, diversities = [], [], [], []
    for u in sorted(held):
        if u not in by_user:
            skipped += 1
            continue
        scored = []
        model_here = 0
        for i, actual in held[u]:
            value, is_model = naive_predict(
                by_user, by_item, friends, vectors, frev, cfg, u, i)
            if is_model:
                errors.append(value - actual)
                model_here += 1
            else:
                fallbacks += 1
            scored.append((i, value))
        covered += model_here > 0
        top = [i for i, _ in naive_top_k(scored, k)]
        relevant = {i for i, actual in held[u] if actual >= tau}
        precision, recall, rr = naive_list_metrics(top, relevant)
        precisions.append(precision)
        if recall is not None:
            recalls.append(recall)
        rrs.append(rr)
        diversities.append(naive_diversity(top, tag_sets))
    precision = _mean_or(precisions, 0.0)
    recall = _mean_or(recalls, 0.0)
    nan = float("nan")
    return {
        "precision": precision,
        "recall": recall,
        "f1": _f1(precision, recall),
        "rmse": math.sqrt(_mean_or([e * e for e in errors], nan)),
        "mae": _mean_or([abs(e) for e in errors], nan),
        "mrr": _mean_or(rrs, 0.0),
        "diversity": _mean_or(diversities, 0.0),
        "user_coverage": covered / len(held) if held else nan,
        "test_users": len(held),
        "ranked_users": len(precisions),
        "recall_users": len(recalls),
        "model_predictions": len(errors),
        "fallback_predictions": fallbacks,
        "skipped_users": skipped,
    }


def naive_row(folds):
    """Every ReportRow field but the names and ``folds``, from naive_fold dicts."""
    def mean_defined(name):
        values = [f[name] for f in folds if not math.isnan(f[name])]
        return _mean_or(values, float("nan"))

    row = {
        name: mean_defined(name)
        for name in ("precision", "recall", "rmse", "mae", "mrr", "diversity",
                     "user_coverage")
    }
    row["f1"] = _f1(row["precision"], row["recall"])
    row["model_predictions"] = sum(f["model_predictions"] for f in folds)
    row["fallback_predictions"] = sum(f["fallback_predictions"] for f in folds)
    return row
