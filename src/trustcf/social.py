"""Undirected friendship graph and the social closeness measures on it.

Edges are symmetrized and deduplicated at construction; self-loops are
dropped.  Adjacency is stored CSR-style with neighbor lists sorted by
handle.  Closeness is computed for many (u, v) pairs in one call.  Every
edge is also kept as a sorted key ``u * num_users + v``, and a pair's
friendship is one binary search in those keys.  Friend-set overlap
counts the friends of v that are friends of u in a bitset of the
friends of each distinct u, built once per call.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .dataset import check_handles, csr_rows, packed_csr, search_keys
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
        # each edge in both directions, sorted by (src, dst), repeats dropped
        self._keys, self._ptr, self._adj = packed_csr(np.concatenate((a * n + b, b * n + a)), n, n)

    def friends_of(self, u: int) -> np.ndarray:
        """Sorted neighbor handles of u (possibly empty)."""
        check_handles(u, self.num_users, "user", UnknownUser)
        return self._adj[self._ptr[u]:self._ptr[u + 1]]

    def friends_of_many(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(user_at, friends) of several users, concatenated.

        Entry n is a friend of ``users[user_at[n]]``; friends ascend
        within a row.
        """
        users = check_handles(users, self.num_users, "user", UnknownUser)
        user_at, flat = csr_rows(self._ptr, users)
        return user_at, self._adj[flat]

    def degree(self, u: int) -> int:
        check_handles(u, self.num_users, "user", UnknownUser)
        return int(self._ptr[u + 1] - self._ptr[u])

    def degree_array(self) -> np.ndarray:
        return np.diff(self._ptr)

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._adj.size // 2)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(np.array([u]), np.array([v]))[0])

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Whether ``us[n]`` and ``vs[n]`` are friends, for each n."""
        us = check_handles(us, self.num_users, "user", UnknownUser)
        vs = check_handles(vs, self.num_users, "user", UnknownUser)
        return search_keys(self._keys, us * self.num_users + vs)[1]

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """(smaller, larger) handles of each undirected edge, ascending."""
        src = np.repeat(np.arange(self.num_users), np.diff(self._ptr))
        once = src < self._adj
        return src[once], self._adj[once]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (smaller handle, larger handle)."""
        return zip(*(side.tolist() for side in self.edge_array()))


def _pairs(g: SocialGraph, u, v_arr) -> tuple[np.ndarray, np.ndarray]:
    """u and v_arr as aligned handle arrays; u may be one handle or many."""
    us, vs = np.broadcast_arrays(
        check_handles(u, g.num_users, "user", UnknownUser),
        check_handles(v_arr, g.num_users, "user", UnknownUser),
    )
    return us.ravel(), vs.ravel()


# Bytes of friend bitset that one jaccard_many chunk zero-fills: the
# distinct query users are taken as many rows at a time as fit.
_BITSET_BYTES = 1 << 20


def jaccard_many(g: SocialGraph, u, v_arr: np.ndarray) -> np.ndarray:
    """Friend-set overlap |F_u ∩ F_v| / |F_u ∪ F_v| of each (u, v) pair.

    ``u`` is one handle or one per candidate.  0 where both sets are
    empty.

    The friends of the distinct users u are set as bits of uint64 words
    over user handles, one row per user, and each friend of a candidate
    costs one gather, one shift and one mask in its pair's row.  A call
    zero-fills distinct users x ``num_users`` / 8 bytes, in chunks of at
    most ``_BITSET_BYTES``: 3.1 KB per user at 25,000 users, about 44 KB
    for the 13 to 15 users of one block of a one-worker U2USocial +
    MTRTrust2 evaluation at that size.  Only a call with hundreds of
    distinct users (335 at 25,000 users) takes more than one chunk, and
    each chunk then scans all of the call's friends, so such a call
    costs chunks x friends.
    """
    us, vs = _pairs(g, u, v_arr)
    v_at, friends = g.friends_of_many(vs)
    rows, row_of = np.unique(us, return_inverse=True)
    row_at = row_of[v_at]
    words = max((g.num_users + 63) >> 6, 1)
    step = max(_BITSET_BYTES // (8 * words), 1)
    common = np.empty(friends.size, dtype=bool)
    for a in range(0, rows.size, step):
        f_at, f = g.friends_of_many(rows[a:a + step])
        bits = np.zeros(min(step, rows.size - a) * words, dtype=np.uint64)
        np.bitwise_or.at(bits, f_at * words + (f >> 6), _bit(f))
        at = slice(None) if rows.size <= step else np.flatnonzero(
            (row_at >= a) & (row_at < a + step))
        mine = friends[at]
        common[at] = bits[(row_at[at] - a) * words + (mine >> 6)] & _bit(mine) != 0
    inter = np.bincount(v_at, weights=common, minlength=vs.size)
    degree = g.degree_array()
    union = degree[us] + degree[vs] - inter
    out = np.zeros(vs.size, dtype=np.float64)
    some = union > 0
    out[some] = inter[some] / union[some]
    return out


def _bit(handles: np.ndarray) -> np.ndarray:
    """Each handle's bit within its uint64 word."""
    return np.left_shift(np.uint64(1), (handles & 63).astype(np.uint64))


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
