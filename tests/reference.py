"""Deliberately naive reference recommender used as a test oracle.

Everything here is plain dicts, lists and explicit loops: no numpy, no
shared code with the package internals.  :func:`naive_predict`
recomputes facet fusion, influence blending, neighbor selection and the
mean-centered prediction from first principles; :func:`naive_fold` and
:func:`naive_row` rebuild a fold's and a report row's metrics from it.
:func:`naive_yelp_canonical` and :func:`naive_librarything_canonical`
render the canonical files straight from raw dump records.
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


# -- ingest -------------------------------------------------------------------

def _naive_listish(raw):
    if raw is None:
        return []
    if isinstance(raw, str):
        parts = [p.strip() for p in raw.split(",")]
        return [p for p in parts if p and p != "None"]
    return [str(p).strip() for p in raw if str(p).strip()]


def _naive_count(record, name):
    return max(int(record.get(name, 0)), 0)


def _naive_render(provenance, ratings, edges, user_counts, review_counts,
                  users, items, tags):
    """Canonical files from plain structures keyed by external ids.

    ``ratings`` maps (user, item) to a value, ``edges`` is a set of
    unordered pairs, ``user_counts`` maps user to {counter: value} and
    ``review_counts`` maps (user, item) to {counter: value}.
    """
    def text(lines):
        return "".join(line + "\n" for line in lines)

    rating_lines = sorted(f"{u}\t{i}\t{format(v, 'g')}" for (u, i), v in ratings.items())
    friend_lines = sorted(f"{a}\t{b}" for a, b in (sorted(e) for e in edges))
    feedback_lines = []
    for u in sorted(users):
        counts = user_counts.get(u, {})
        for name in sorted(set(counts) | {"review_count"}):
            value = counts.get(name, 0)
            if value or name == "review_count":
                feedback_lines.append(f"{u}\t{name}\t{value}")
    review_lines = sorted(
        f"{u}\t{i}\t{name}\t{value}"
        for (u, i), counts in review_counts.items()
        for name, value in counts.items()
        if value
    )
    category_lines = []
    for i in sorted(items):
        if tags.get(i):
            category_lines += [f"{i}\t{t}" for t in sorted(tags[i])]
        else:
            category_lines.append(f"{i}\t")
    manifest = (
        f"schema_version=1\nprovenance={provenance}\nnum_users={len(users)}\n"
        f"num_items={len(items)}\nnum_ratings={len(ratings)}\n"
    )
    return {
        "manifest.txt": manifest,
        "ratings.tsv": text(rating_lines),
        "friends.tsv": text(friend_lines),
        "user_feedback.tsv": text(feedback_lines),
        "review_feedback.tsv": text(review_lines),
        "item_categories.tsv": text(category_lines),
    }


def _naive_latest(rows):
    """Per (user, item) key, the row with the largest (stamp, line)."""
    latest = {}
    for key, stamp, line, row in rows:
        if key not in latest or (stamp, line) > latest[key][0]:
            latest[key] = ((stamp, line), row)
    return {key: row for key, (_, row) in latest.items()}


def naive_yelp_canonical(businesses, reviews, profiles, tips):
    """(canonical files, duplicate count) of a Yelp dump's records.

    Each argument lists one file's records in line order, one per line.
    """
    tags = {}
    for r in businesses:
        tags[str(r["business_id"])] = set(_naive_listish(r.get("categories")))

    rows = []
    for line, r in enumerate(reviews, start=1):
        votes = r["votes"] if isinstance(r.get("votes"), dict) else r
        key = (str(r["user_id"]), str(r["business_id"]))
        rows.append((key, str(r.get("date") or ""), line, (
            float(r["stars"]),
            {name: _naive_count(votes, name) for name in ("useful", "funny", "cool")},
        )))
    kept = _naive_latest(rows)

    users, edges, user_counts = set(), set(), {}
    for r in profiles:
        u = str(r["user_id"])
        users.add(u)
        counts = user_counts.setdefault(u, {})
        counts["elite_years"] = len(_naive_listish(r.get("elite")))
        counts["more"] = _naive_count(r, "compliment_more")
        counts["thx"] = _naive_count(r, "compliment_note")
        counts["gw"] = _naive_count(r, "compliment_writer")
        counts["fans"] = _naive_count(r, "fans")
        for friend in _naive_listish(r.get("friends")):
            users.add(friend)
            if friend != u:
                edges.add(frozenset((u, friend)))
    for r in tips:
        u = str(r["user_id"])
        users.add(u)
        counts = user_counts.setdefault(u, {})
        likes = _naive_count(r, "likes" if "likes" in r else "compliment_count")
        counts["tip_likes"] = counts.get("tip_likes", 0) + likes
        counts["tip_count"] = counts.get("tip_count", 0) + 1

    ratings, review_counts = {}, {}
    for (u, i), (value, votes) in kept.items():
        users.add(u)
        ratings[(u, i)] = value
        review_counts[(u, i)] = votes
        counts = user_counts.setdefault(u, {})
        for name in ("useful", "funny", "cool"):
            counts["review_" + name] = counts.get("review_" + name, 0) + votes[name]
        counts["review_count"] = counts.get("review_count", 0) + 1
    items = set(tags) | {i for _, i in ratings}
    files = _naive_render("yelp", ratings, edges, user_counts, review_counts,
                          users, items, tags)
    return files, len(reviews) - len(kept)


def naive_librarything_canonical(reviews, friend_pairs):
    """(canonical files, duplicates, dropped) of a LibraryThing dump.

    ``reviews`` lists the review file's records in line order, one per
    line; ``friend_pairs`` lists the friend file's (user, user) lines.
    """
    rows, dropped = [], 0
    for line, r in enumerate(reviews, start=1):
        stars = r.get("stars")
        rating = float(stars) if stars is not None else 0.0
        if not 1.0 <= rating <= 5.0:
            dropped += 1
            continue
        key = (str(r["user"]), str(r["work"]))
        stamp = int(r.get("unixtime") or 0)
        rows.append((key, stamp, line, (rating, max(int(r.get("nhelpful") or 0), 0))))
    kept = _naive_latest(rows)

    users, edges = set(), set()
    for a, b in friend_pairs:
        users.update((a, b))
        if a != b:
            edges.add(frozenset((a, b)))
    ratings, review_counts, user_counts = {}, {}, {}
    for (u, i), (value, helpful) in kept.items():
        users.add(u)
        ratings[(u, i)] = value
        review_counts[(u, i)] = {"nhelpful": helpful}
        counts = user_counts.setdefault(u, {})
        counts["nhelpful_total"] = counts.get("nhelpful_total", 0) + helpful
        counts["review_count"] = counts.get("review_count", 0) + 1
    items = {i for _, i in ratings}
    files = _naive_render("librarything", ratings, edges, user_counts, review_counts,
                          users, items, {})
    return files, len(rows) - len(kept), dropped
