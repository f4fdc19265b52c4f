"""Undirected friendship graph and the social closeness measures on it.

Edges are symmetrized and deduplicated at construction; self-loops are
dropped.  Adjacency is stored CSR-style with neighbor lists sorted by
handle, so membership tests are binary searches.  Closeness is computed
for many (u, v) pairs in one call: every edge is also kept as a sorted
key ``u * num_users + v``, and a pair's friendship, or a friend of v
being a friend of u, is one binary search in those keys.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .dataset import csr_rows
from .errors import UnknownUser


class SocialGraph:
    __slots__ = ("num_users", "_ptr", "_adj", "_keys")

    def __init__(self, num_users: int, edges: Iterable[tuple[int, int]] = ()):
        """``edges`` is pairs of handles, or an (m, 2) array of them."""
        self.num_users = n = int(num_users)
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        a, b = pairs[:, 0], pairs[:, 1]
        bad = (a < 0) | (a >= n) | (b < 0) | (b >= n)
        if bad.any():
            at = int(np.argmax(bad))
            raise ValueError(f"edge ({a[at]}, {b[at]}) references unknown user")
        loop = a == b
        a, b = a[~loop], b[~loop]
        # each edge in both directions, sorted by (src, dst), repeats dropped;
        # not np.unique or np.sort: their first calls load code (numpy.ma,
        # more sort kernels) that adds to the peak RSS of a whole run
        keys = np.concatenate((a * n + b, b * n + a))
        keys = keys[np.argsort(keys, kind="stable")]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        self._keys = keys[first]
        self._keys.setflags(write=False)
        src = self._keys // max(n, 1)
        self._adj = self._keys - src * n
        self._adj.setflags(write=False)
        self._ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        self._ptr.setflags(write=False)

    def friends_of(self, u: int) -> np.ndarray:
        """Sorted neighbor handles of u (possibly empty)."""
        self._check(u)
        return self._adj[self._ptr[u]:self._ptr[u + 1]]

    def friends_of_many(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(user_at, friends) of several users, concatenated.

        Entry n is a friend of ``users[user_at[n]]``; friends ascend
        within a row.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.size and (users.min() < 0 or users.max() >= self.num_users):
            raise UnknownUser("user handle out of range")
        user_at, flat = csr_rows(self._ptr, users)
        return user_at, self._adj[flat]

    def degree(self, u: int) -> int:
        self._check(u)
        return int(self._ptr[u + 1] - self._ptr[u])

    def degree_array(self) -> np.ndarray:
        return np.diff(self._ptr)

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._adj.size // 2)

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return bool(self.has_edges(np.array([u]), np.array([v]))[0])

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Whether ``us[n]`` and ``vs[n]`` are friends, for each n."""
        want = np.asarray(us, dtype=np.int64) * self.num_users + vs
        if self._keys.size == 0:
            return np.zeros(want.size, dtype=bool)
        at = np.minimum(np.searchsorted(self._keys, want), self._keys.size - 1)
        return self._keys[at] == want

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """(smaller, larger) handles of each undirected edge, ascending."""
        src = np.repeat(np.arange(self.num_users), np.diff(self._ptr))
        once = src < self._adj
        return src[once], self._adj[once]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (smaller handle, larger handle)."""
        return zip(*(side.tolist() for side in self.edge_array()))

    def _check(self, u: int) -> None:
        if not 0 <= u < self.num_users:
            raise UnknownUser(f"user handle {u} out of range")


def _pairs(g: SocialGraph, u, v_arr) -> tuple[np.ndarray, np.ndarray]:
    """u and v_arr as aligned handle arrays; u may be one handle or many."""
    us, vs = np.broadcast_arrays(
        np.asarray(u, dtype=np.int64), np.asarray(v_arr, dtype=np.int64)
    )
    for arr in (us, vs):
        if arr.size and (arr.min() < 0 or arr.max() >= g.num_users):
            raise UnknownUser("user handle out of range")
    return us.ravel(), vs.ravel()


def jaccard_many(g: SocialGraph, u, v_arr: np.ndarray) -> np.ndarray:
    """Friend-set overlap |F_u ∩ F_v| / |F_u ∪ F_v| of each (u, v) pair.

    ``u`` is one handle or one per candidate.  0 where both sets are
    empty.
    """
    us, vs = _pairs(g, u, v_arr)
    v_at, friends = g.friends_of_many(vs)
    inter = np.bincount(v_at, weights=g.has_edges(us[v_at], friends), minlength=vs.size)
    degree = g.degree_array()
    union = degree[us] + degree[vs] - inter
    out = np.zeros(vs.size, dtype=np.float64)
    some = union > 0
    out[some] = inter[some] / union[some]
    return out


def jaccard(g: SocialGraph, u: int, v: int) -> float:
    """Friend-set overlap |F_u ∩ F_v| / |F_u ∪ F_v|; 0 when both sets are empty."""
    if u == v:
        raise ValueError("relatedness is defined for distinct users")
    return float(jaccard_many(g, u, np.array([v]))[0])


def relatedness(g: SocialGraph, u, v_arr: np.ndarray, mode: str) -> np.ndarray:
    """rel(u, v) for each (u, v) pair: 1 for friends.

    ``u`` is one handle or one per candidate.  A non-friend scores 0 in
    ``"direct"`` mode and its friend-set overlap with u in
    ``"intersection"`` mode.
    """
    if mode not in ("direct", "intersection"):
        raise ValueError(f"unknown rel mode {mode!r}")
    us, vs = _pairs(g, u, v_arr)
    rel = g.has_edges(us, vs).astype(np.float64)
    if mode == "intersection":
        strangers = rel == 0.0
        rel[strangers] = jaccard_many(g, us[strangers], vs[strangers])
    return rel


def rel_pair(g: SocialGraph, u: int, v: int, mode: str) -> float:
    """rel(u, v) of two distinct users; see :func:`relatedness`."""
    if u == v:
        raise ValueError("relatedness is defined for distinct users")
    return float(relatedness(g, u, np.array([v]), mode)[0])


def rel_direct(g: SocialGraph, u: int, v: int) -> float:
    """1 when u and v are friends, else 0."""
    return rel_pair(g, u, v, "direct")


def rel_social_intersection(g: SocialGraph, u: int, v: int) -> float:
    """Direct friendship short-circuits to 1; otherwise friend-set overlap."""
    return rel_pair(g, u, v, "intersection")
