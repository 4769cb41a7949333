"""Hot order-theoretic kernels, vectorized with numpy and shaped for BLAS.

Counting identities over an order matrix run as float32 matrix products,
which numpy hands to BLAS (integer products it computes itself).  Every
count is at most n, so the products are exact while n < 2**24.

Meet and join tables come from bit rows: the meet candidate of (a, b) is
the common lower bound with the largest down-set, found as the first bit
set in both packed rows when columns are sorted by down-set size.  In a
partial order it is the meet exactly when its down-set is as large as the
number of common lower bounds, which one BLAS product counts for all pairs
at once (dually for joins).
"""

from __future__ import annotations

import numpy as np

STATUS_OK = 0
STATUS_NO_MEET = 1
STATUS_NO_JOIN = 2

# uint64 words of bit rows ANDed per block of bound_tables (2 MiB)
_BLOCK_WORDS = 1 << 18


def _counts(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[i, j] = |{k : x[i, k] and y[k, j]}| as one float32 BLAS product."""
    return x.astype(np.float32) @ y.astype(np.float32)


def bool_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean product: out[i, j] iff x[i, k] and y[k, j] for some k."""
    return _counts(x, y) > 0


# ---------------------------------------------------------------------------
# meet/join tables


def _packed_rows(bits: np.ndarray) -> np.ndarray:
    """Each boolean row as native uint64 words, column 0 in the most
    significant bit of word 0."""
    packed = np.packbits(bits, axis=1)
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    return np.ascontiguousarray(packed).view(">u8").astype(np.uint64)


def _first_common(words: np.ndarray, rows: slice) -> np.ndarray:
    """[a, b] -> first column set in both rows a (of ``rows``) and b, else -1."""
    both = words[rows][:, None, :] & words[None, :, :]
    w = (both != 0).argmax(axis=2)
    v = np.take_along_axis(both, w[..., None], axis=2)[..., 0]
    del both
    # bit length of v; each 32-bit half converts to float64 exactly
    hi = np.frexp((v >> np.uint64(32)).astype(np.float64))[1]
    lo = np.frexp((v & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    bits = np.where(hi > 0, 32 + hi, lo)
    return np.where(v != 0, 64 * w + 64 - bits, -1)


def _bounds_block(words, order, size, count, rows):
    """Candidate bounds of the pairs in ``rows`` and whether each is one."""
    k = _first_common(words, rows)
    cand = order[k]
    return cand, (k >= 0) & (size[cand] == count[rows])


def bound_tables(leq: np.ndarray):
    """All-pairs greatest lower / least upper bounds of a partial order.

    Returns (meet, join, status, a, b); status != STATUS_OK flags the first
    pair (a, b), in row-major order, without a unique bound (a missing meet
    reported before a missing join in the same row); the tables are then
    incomplete.  ``leq`` must be a partial order.
    """
    leq = np.ascontiguousarray(leq, dtype=bool)
    n = leq.shape[0]
    down = leq.sum(axis=0)  # |{c : c <= j}| per column j
    up = leq.sum(axis=1)
    common_low = _counts(leq.T, leq)  # [a, b] -> number of common lower bounds
    common_up = _counts(leq, leq.T)
    by_down = np.argsort(-down, kind="stable")
    by_up = np.argsort(-up, kind="stable")
    low_words = _packed_rows(leq[by_down].T)  # [a, k]: by_down[k] <= a
    up_words = _packed_rows(leq[:, by_up])  # [a, k]: a <= by_up[k]
    meet = np.full((n, n), -1, np.int64)
    join = np.full((n, n), -1, np.int64)
    step = max(1, _BLOCK_WORDS // max(1, n * low_words.shape[1]))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        meet[rows], meet_ok = _bounds_block(low_words, by_down, down, common_low, rows)
        join[rows], join_ok = _bounds_block(up_words, by_up, up, common_up, rows)
        bad = ~(meet_ok & join_ok).all(axis=1)
        if bad.any():
            r = int(np.argmax(bad))
            if not meet_ok[r].all():
                return meet, join, STATUS_NO_MEET, start + r, int(np.argmin(meet_ok[r]))
            return meet, join, STATUS_NO_JOIN, start + r, int(np.argmin(join_ok[r]))
    return meet, join, STATUS_OK, -1, -1


# ---------------------------------------------------------------------------
# law checks


def distributivity_witness(meet, join):
    """First triple violating a ^ (b v c) == (a ^ b) v (a ^ c), else (-1,)*3."""
    n = meet.shape[0]
    for a in range(n):
        lhs = meet[a][join]  # [b, c] -> a ^ (b v c)
        rhs = join[meet[a][:, None], meet[a][None, :]]
        bad = lhs != rhs
        if bad.any():
            b, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return a, int(b), int(c)
    return -1, -1, -1


def all_commute(meet, join, ortho) -> bool:
    """Whether a == (a ^ b) v (a ^ b') for every pair (a, b).

    By Foulis-Holland theory (Kalmbach, *Orthomodular Lattices*, 1983) an
    orthomodular lattice is Boolean, hence distributive, iff this holds.
    """
    ortho = np.asarray(ortho, np.int64)
    rel = join[meet, meet[:, ortho]]  # [a, b] -> (a ^ b) v (a ^ b')
    return bool((rel == np.arange(meet.shape[0])[:, None]).all())


def orthomodularity_witness(leq, meet, join, ortho):
    """First pair a <= b with b != a v (b ^ a'), else (-1, -1)."""
    n = leq.shape[0]
    # rel[a, b] = a v (b ^ a')
    c = meet[:, np.asarray(ortho, np.int64)]  # [b, a] -> b ^ a'
    rel = np.take_along_axis(join, c.T, axis=1)
    bad = leq & (rel != np.arange(n)[None, :])
    if bad.any():
        a, b = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return int(a), int(b)
    return -1, -1
