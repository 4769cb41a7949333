"""Hot order-theoretic kernels, vectorized with numpy and shaped for BLAS.

Counting identities over an order matrix run as float32 matrix products,
which numpy hands to BLAS (integer products it computes itself).  Every
count is at most n, so the products are exact while n < 2**24.

The join table comes from bit rows: the join candidate of (a, b) is the
common upper bound with the largest up-set, found as the first bit set in
both packed rows when columns are sorted by up-set size.  In a partial
order it is the join exactly when its up-set is as large as the number of
common upper bounds, which one BLAS product counts for all pairs at once.
Both the table and the test are symmetric, so only the pairs a <= b (by
index) are searched and the rest mirrored.  Meets are joins too: when the
orthocomplement is an involution that reverses the order,
a ^ b = (a' v b')' (De Morgan); otherwise they are the joins of the
reversed order.

The n^2 law scans run in row blocks of at most ``_SCAN_BYTES`` per
temporary, so no scan allocates an n x n array; blocks that small are
served from the heap rather than from fresh pages.
"""

from __future__ import annotations

import numpy as np

STATUS_OK = 0
STATUS_NO_MEET = 1
STATUS_NO_JOIN = 2

# uint64 words of bit rows ANDed per block of bound_tables (2 MiB)
_BLOCK_WORDS = 1 << 18
# bytes of one temporary of an n^2 scan per row block (64 KiB); below
# glibc's default mmap threshold of 128 KiB, so no block maps fresh pages
_SCAN_BYTES = 1 << 16


def row_blocks(n: int, row_bytes: int):
    """Slices of 0..n whose rows of ``row_bytes`` bytes fill at most
    ``_SCAN_BYTES`` (at least one row per slice)."""
    step = max(1, _SCAN_BYTES // max(1, row_bytes))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


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


def _first_common(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """[i, j] -> first bit set in both word rows rows[i] and cols[j], else -1."""
    both = rows[:, None, :] & cols[None, :, :]
    w = (both != 0).argmax(axis=2)
    v = np.take_along_axis(both, w[..., None], axis=2)[..., 0]
    del both
    # bit length of v; each 32-bit half converts to float64 exactly
    hi = np.frexp((v >> np.uint64(32)).astype(np.float64))[1]
    lo = np.frexp((v & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    bits = np.where(hi > 0, 32 + hi, lo)
    return np.where(v != 0, 64 * w + 64 - bits, -1)


def _joins(leq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Join candidates of every pair and whether each is the join.

    Rows s:e are searched against columns s: only, so each pair a <= b (by
    index) is computed once and mirrored into (b, a).
    """
    n = leq.shape[0]
    up = leq.sum(axis=1)  # |{c : i <= c}| per row i
    by_up = np.argsort(-up, kind="stable")
    words = _packed_rows(leq[:, by_up])  # [a, k]: a <= by_up[k]
    f = leq.astype(np.float32)
    common = f @ f.T  # [a, b] -> number of common upper bounds
    del f
    join = np.empty((n, n), np.int64)
    ok = np.empty((n, n), bool)
    start = 0
    while start < n:
        stop = min(n, start + max(1, _BLOCK_WORDS // ((n - start) * words.shape[1])))
        k = _first_common(words[start:stop], words[start:])
        cand = by_up[k]
        good = (k >= 0) & (up[cand] == common[start:stop, start:])
        join[start:stop, start:] = cand
        join[start:, start:stop] = cand.T
        ok[start:stop, start:] = good
        ok[start:, start:stop] = good.T
        start = stop
    return join, ok


def _reverses_order(leq: np.ndarray, ortho: np.ndarray) -> bool:
    """Whether ortho is an involution with a <= b iff b' <= a'."""
    n = leq.shape[0]
    if not (ortho[ortho] == np.arange(n)).all():
        return False
    return all(
        (leq[np.ix_(ortho[rows], ortho)] == leq[:, rows].T).all()
        for rows in row_blocks(n, n)
    )


def bound_tables(leq: np.ndarray, ortho=None):
    """All-pairs greatest lower / least upper bounds of a partial order.

    Returns (meet, join, status, a, b); status != STATUS_OK flags the first
    pair (a, b), in row-major order, without a unique bound (a missing meet
    reported before a missing join in the same row); the tables are then
    not valid.  ``leq`` must be a partial order.  When ``ortho`` (a
    permutation) is an involution that reverses the order, meets are read
    from the join table by De Morgan, a ^ b = (a' v b')'; otherwise they are
    searched as the joins of the reversed order.
    """
    leq = np.ascontiguousarray(leq, dtype=bool)
    n = leq.shape[0]
    join, join_ok = _joins(leq)
    if ortho is not None and _reverses_order(leq, o := np.asarray(ortho, np.int64)):
        meet = join[np.ix_(o, o)]
        for rows in row_blocks(n, 8 * n):
            meet[rows] = o[meet[rows]]
        meet_ok = join_ok[np.ix_(o, o)]
    else:
        meet, meet_ok = _joins(leq.T)
    bad = ~(meet_ok.all(axis=1) & join_ok.all(axis=1))
    if not bad.any():
        return meet, join, STATUS_OK, -1, -1
    r = int(np.argmax(bad))
    if not meet_ok[r].all():
        return meet, join, STATUS_NO_MEET, r, int(np.argmin(meet_ok[r]))
    return meet, join, STATUS_NO_JOIN, r, int(np.argmin(join_ok[r]))


# ---------------------------------------------------------------------------
# law checks


def distributivity_witness(meet, join):
    """First triple violating a ^ (b v c) == (a ^ b) v (a ^ c), in row-major
    order, else (-1,)*3."""
    n = meet.shape[0]
    for a in range(n):
        ma = meet[a]
        for rows in row_blocks(n, 8 * n):
            lhs = ma[join[rows]]  # [b, c] -> a ^ (b v c)
            rhs = join[ma[rows, None], ma[None, :]]
            bad = lhs != rhs
            if bad.any():
                b, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
                return a, rows.start + int(b), int(c)
    return -1, -1, -1


def all_commute(meet, join, ortho) -> bool:
    """Whether a == (a ^ b) v (a ^ b') for every pair (a, b).

    By Foulis-Holland theory (Kalmbach, *Orthomodular Lattices*, 1983) an
    orthomodular lattice is Boolean, hence distributive, iff this holds.
    """
    n = meet.shape[0]
    ortho = np.asarray(ortho, np.int64)
    for rows in row_blocks(n, 8 * n):
        m = meet[rows]
        rel = join[m, m[:, ortho]]  # [a, b] -> (a ^ b) v (a ^ b')
        if not (rel == np.arange(n)[rows, None]).all():
            return False
    return True


def orthomodularity_witness(leq, meet, join, ortho):
    """First pair a <= b with b != a v (b ^ a'), else (-1, -1)."""
    n = leq.shape[0]
    ortho = np.asarray(ortho, np.int64)
    for rows in row_blocks(n, 8 * n):
        c = meet[:, ortho[rows]].T  # [a, b] -> b ^ a'
        rel = np.take_along_axis(join[rows], c, axis=1)  # a v (b ^ a')
        bad = leq[rows] & (rel != np.arange(n))
        if bad.any():
            a, b = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return rows.start + int(a), int(b)
    return -1, -1
