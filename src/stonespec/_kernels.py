"""Hot order-theoretic kernels, vectorized with numpy.

The lattice layer runs one n x n product, the common-upper-bound counts of
the join search below, in float32, which numpy hands to BLAS.  Every count
is at most n, so it is exact while n < 2**24, and the search keeps the
counts in the index type of n + 1 (:func:`index_dtype`), cast once the
float32 copy of the order is freed: the product's two float32 arrays, 8
bytes a pair, are the peak of the search on all but small n.

The join table comes first from meet-irreducible signatures (Birkhoff's
representation; Ganter and Wille, *Formal Concept Analysis*, 1999): every
element of a finite lattice is the meet of the meet-irreducibles above it,
so a v b is the element whose set of them is the intersection of theirs
(:func:`_signature_joins`).  The sets are bit masks, and a table of 2^|S|
entries, taken only while 2^|S| <= n^2, finds the element of each mask; one
O(n^2) row-blocked pass checks that the masks embed the order, which
proves it transitive, and fills the table.  On the Boolean algebras that
spectral families generate, S is the m coatoms.  No product runs.  The
path declines (MOk, chains: |S| is about n) when |S| is too large, the
check fails or a lookup misses, and then the search below runs and decides
every status and witness.

The search takes the join table from bit rows: the join candidate of
(a, b) is the common upper bound with the largest up-set, the lowest bit
set in both packed rows when the elements are sorted by up-set size
(largest first) and packed little-endian.  In a partial order it is the join exactly when its
up-set is as large as the number of common upper bounds, which one BLAS
product counts for all pairs at once.  In that order the relation is upper
triangular, so the common upper bounds of positions i <= j lie at j or
after: the 64 columns of each word are searched against the rows before
their end only, one word at a time from their own word on, until every pair
has found its bit, and mirrored (table and test are symmetric).  The counts
first decide transitivity in O(n^2): a reflexive relation is transitive iff
every a <= b has |up(b)| common upper bounds; one OR of packed rows then
names the first gap (:func:`_upper_counts`).  Meets are joins too: when the
orthocomplement is an involution that reverses the order, a ^ b = (a' v b')'
(De Morgan), gathered in row blocks; otherwise they are the joins of the
reversed order, from its signatures (the join-irreducibles, read from rows
of the order) or its search.  One test decides the reversal
(:func:`_reverses_order`), once per lattice: ``FiniteOML`` decides it
before its tables, keeps the verdict for ``lattice.verify_structure`` and
builds its tables with :func:`_bound_tables`, which takes the decided
verdict; :func:`_ortho_witness` runs only to name the witness of a map that
fails it.

The tables hold element indices in the narrowest integer type that holds
n - 1 (:func:`index_dtype`): int16, two bytes a pair, while n <= 2^15.
Permutation gathers of n x n bool and index arrays take rows, then columns
(two ``take`` calls), which numpy runs several times faster than the 2-D
``np.ix_`` gather; the join search relabels its table so, one row block at a
time, into its output.

The n^2 law scans run in row blocks of at most ``_SCAN_BYTES`` per
temporary, so no scan allocates an n x n array; blocks that small are
served from the heap rather than from fresh pages.  One function walks the
blocks for every scan (:func:`_first_pair`), given the test of one block.
A test of a symmetric relation that would read columns of the order (its
transpose) walks square tiles of at most ``_SCAN_BYTES`` instead
(:func:`_first_upper_pair`): the first pair lies on or above the diagonal,
so only the tiles on or right of it are read, each gathered by rows.  This
decides antisymmetry and order reversal.

Distributivity and atomism are one question, whether every element is the
join of the elements of a set S below it, and one count test decides both
(:func:`_unjoined`): x is that join exactly when no y < x has as many
elements of S below it, one O(n^2) row-blocked pass.  For distributivity
(:func:`_distributive`) S is the join-primes, which one row-blocked pass
over the cached down-set sizes finds; a lattice with more than 2^|S|
elements is not distributive (Birkhoff), and no count runs.  For atomism S
is the atoms (on a distributive lattice ``lattice.verify_structure`` needs
no pass: it is atomistic iff n = 2^|atoms|).  The
O(n^3) triple scan (:func:`distributivity_witness`) runs only to name the
witness of a lattice that fails, and skips the rows of the elements
comparable to every element, which cannot fail.  Orthomodularity is decided
on every ortholattice in one O(n^2) row-blocked pass (:func:`_orthomodular`):
no a < b may have a' ^ b = 0.  The gather of all a v (b ^ a')
(:func:`orthomodularity_witness`) runs only on a lattice that fails the
orthocomplement test or that decision.
"""

from __future__ import annotations

import math

import numpy as np

STATUS_OK = 0
STATUS_NO_MEET = 1
STATUS_NO_JOIN = 2
STATUS_NOT_TRANSITIVE = 3

# pairs of bit rows ANDed at once per block of bound_tables: one uint64 word
# each (2 MiB), so at most 4096 rows against one word of 64 columns
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


def _first_pair(n: int, row_bytes: int, bad) -> tuple[int, int] | None:
    """First (i, j), in row-major order, set in the boolean blocks bad(rows)
    over the slices of :func:`row_blocks` (row k of a block is row
    rows.start + k), else None; stops at the first block with a pair set."""
    for rows in row_blocks(n, row_bytes):
        block = bad(rows)
        if block.any():
            i, j = np.unravel_index(int(np.argmax(block)), block.shape)
            return rows.start + int(i), int(j)
    return None


def _first_upper_pair(n: int, bad) -> tuple[int, int] | None:
    """First (i, j), in row-major order, set in a symmetric boolean relation
    on 0..n given tile by tile as bad(rows, cols), else None.

    Its first pair lies on or above the diagonal (the mirror of a pair below
    it comes in an earlier row), so only the square tiles of w x w pairs
    (w^2 <= ``_SCAN_BYTES``) on or right of the diagonal are read, one band
    of w rows at a time; a band's pair is the least row set over all its
    tiles, then that row's least column.
    """
    w = max(1, math.isqrt(_SCAN_BYTES))
    for i in range(0, n, w):
        rows = slice(i, min(i + w, n))
        first = None
        for j in range(i, n, w):
            block = bad(rows, slice(j, min(j + w, n)))
            if block.any():
                r = int(np.argmax(block.any(axis=1)))
                if first is None or r < first[0]:
                    first = r, j + int(np.argmax(block[r]))
        if first is not None:
            return i + first[0], first[1]
    return None


def index_dtype(n: int) -> np.dtype:
    """The narrowest signed integer type that holds every index below n (and
    -1): int16 while n <= 2^15, else int32 (no n x n table of 2^31 elements
    fits in memory)."""
    return np.dtype(np.int16 if n <= 1 << 15 else np.int32)


# ---------------------------------------------------------------------------
# meet/join tables


def packed_rows(bits: np.ndarray) -> np.ndarray:
    """Each boolean row as uint64 words, little-endian: column k is bit
    k % 64 of word k // 64."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    return np.ascontiguousarray(packed).view("<u8").astype(np.uint64)


def unpacked_rows(words: np.ndarray, n: int) -> np.ndarray:
    """The boolean rows of n columns that :func:`packed_rows` packed."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little").view(bool)


def _first_common(rows: np.ndarray, cols: np.ndarray, w0: int, dtype) -> np.ndarray:
    """[i, j] -> lowest bit set in both word rows rows[i] and cols[j], else -1,
    of the given integer type; words before w0 must be empty in one of the two.

    Scans one word at a time and stops once every pair has found its bit;
    the lowest set bit of v is the number of ones in (v & -v) - 1, taken in
    place on the words of the new hits, so a word of the block holds at most
    two 8-byte temporaries per pair.
    """
    out = np.full((len(rows), len(cols)), -1, dtype)
    flat = out.reshape(-1)
    todo = np.ones(flat.size, bool)
    left = flat.size
    for w in range(w0, rows.shape[1]):
        v = (rows[:, w, None] & cols[None, :, w]).reshape(-1)
        hit = v != 0
        hit &= todo
        found = np.count_nonzero(hit)
        if found:
            v = v[hit]
            low = np.negative(v)
            low &= v
            low -= np.uint64(1)
            flat[hit] = np.bitwise_count(low) + out.dtype.type(64 * w)
            left -= found
            if not left:
                break
            todo &= ~hit
    return out


def _upper_counts(leq: np.ndarray):
    """(by_up, pos, up, words, common, gap) of a reflexive relation: its
    elements by up-set size, largest first, the position of each, and by
    position the up-set sizes, packed rows and common-upper-bound counts,
    sizes and counts of type ``index_dtype(n + 1)``, the counts cast from
    the float32 product after its float32 operand is freed;
    gap is the first pair of leq.leq & ~leq in row-major order, or None.  Row
    i has a gap iff some j >= i has fewer than |up(j)| common upper bounds
    with i; the least such i is its row, its column the first j in the rows
    of up(i) but not in row i."""
    n = leq.shape[0]
    count = index_dtype(n + 1)  # every count is at most n
    up = leq.sum(axis=1, dtype=count)  # |{c : i <= c}| per row i
    by_up = np.argsort(-up, kind="stable")
    pos = np.empty(n, np.int64)
    pos[by_up] = np.arange(n)
    rel = leq.take(by_up, axis=0).take(by_up, axis=1)
    words = packed_rows(rel)  # [i, k]: by_up[i] <= by_up[k]
    f = rel.astype(np.float32)
    del rel
    common = f @ f.T  # [i, j] -> number of common upper bounds
    del f
    common = common.astype(count)  # exact: the counts are integers of at most n
    up = up[by_up]
    failed = np.concatenate([(unpacked_rows(words[rows], n) & (common[rows] != up)).any(axis=1)
                             for rows in row_blocks(n, n)])
    if not failed.any():
        return by_up, pos, up, words, common, None
    i = int(by_up[failed].min())
    reach = np.bitwise_or.reduce(words[pos[leq[i]]])  # by position
    return by_up, pos, up, words, common, (
        i, int(np.argmax(unpacked_rows(reach[None], n)[0, pos] & ~leq[i])))


def _joins(leq: np.ndarray):
    """Join candidates of every pair, whether each is the join, and the
    position of each element in the search order; if not transitive, the
    first pair of leq.leq & ~leq instead (see :func:`_upper_counts`).

    The search runs on the order relabeled by up-set size, largest first,
    where it is upper triangular: the common upper bounds of the positions
    i <= j lie at j or after.  So the 64 columns of word w are searched
    against the rows before their end, from word w on, and mirrored.
    Returns (join, ok, pos): join[a, b] is the candidate for (a, b), and
    ok[pos[a], pos[b]] says whether it is the join; or the pair (i, j).
    """
    by_up, pos, up, words, common, gap = _upper_counts(leq)
    if gap is not None:
        return gap
    n = leq.shape[0]
    dtype = index_dtype(n)
    # positions, not labels, in the search order
    at = np.empty((n, n), dtype)
    ok = np.empty((n, n), bool)
    for w in range(words.shape[1]):
        cols = slice(64 * w, min(n, 64 * w + 64))
        step = max(1, _BLOCK_WORDS // (cols.stop - cols.start))
        for start in range(0, cols.stop, step):
            rows = slice(start, min(cols.stop, start + step))
            k = _first_common(words[rows], words[cols], w, dtype)
            good = (k >= 0) & (up[k] == common[rows, cols])
            at[rows, cols] = k
            at[cols, rows] = k.T
            ok[rows, cols] = good
            ok[cols, rows] = good.T
    del common
    labels = by_up.astype(dtype)
    join = np.empty_like(at)
    for rows in row_blocks(n, at.itemsize * n):
        labels.take(at.take(pos[rows], axis=0).take(pos, axis=1), out=join[rows])
    return join, ok, pos


def _signature_joins(leq: np.ndarray, dual: bool = False) -> np.ndarray | None:
    """The join table of the order leq (of its reverse leq.T when ``dual``)
    from meet-irreducible signatures, or None to decline.

    S holds each a with some c >= a whose up-set has |up(a)| - 1 elements:
    in a partial order, the a whose strict up-set has a least element, the
    meet-irreducibles of a lattice (of the reverse, the join-irreducibles).
    sig(a) = {s in S : a <= s} is one int64 mask.  If a <= b iff sig(b) is
    a subset of sig(a), for every pair, the relation is transitive and, as
    it is antisymmetric, sig is injective; then the k with sig(k) = sig(a) &
    sig(b) lies above a and b and below each of their common upper bounds c
    (sig(c) is in sig(k)): k = a v b.  That holds for any S, so S only
    decides whether the path answers.  The masks are looked up in a direct
    table of 2^|S| entries, taken only while 2^|S| <= n^2, and the scan for
    S stops once |S| passes that.  The check and the lookup are one
    row-blocked pass: a <= b iff the k looked up for (a, b) is b, which over
    all pairs, the diagonal included, is the embedding and the injectivity
    at once; on the reverse, by the symmetry of the lookup, leq[a, b] iff k
    is a, so every pass reads rows of leq.  Declines when |S| is too large,
    the check fails or a lookup misses.  ``leq`` must be reflexive,
    antisymmetric and C-contiguous.
    """
    n = leq.shape[0]
    limit = (n * n).bit_length() - 1  # the largest |S| with 2^|S| <= n^2
    up = leq.sum(axis=0 if dual else 1).astype(index_dtype(n + 1))  # |up(a)|
    signed = np.zeros(n, bool)
    for rows in row_blocks(n, n):
        if dual:  # [c, a] -> c <= a, |down(c)| = |down(a)| - 1
            signed |= (leq[rows] & (up[rows, None] == up - 1)).any(axis=0)
        else:  # [a, c] -> a <= c, |up(c)| = |up(a)| - 1
            signed[rows] = (leq[rows] & (up == up[rows, None] - 1)).any(axis=1)
        if np.count_nonzero(signed) > limit:
            return None
    s = np.flatnonzero(signed)
    bits = np.int64(1) << np.arange(s.size, dtype=np.int64)
    sig = bits @ leq[s] if dual else leq[:, s] @ bits
    dtype = index_dtype(n)
    ids = np.arange(n, dtype=dtype)
    where = np.full(1 << s.size, -1, dtype)
    where[sig] = ids
    join = np.empty((n, n), dtype)
    for rows in row_blocks(n, sig.itemsize * n):
        k = join[rows]
        where.take(sig[rows, None] & sig, out=k, mode="clip")  # indices < 2^|S|
        wrong = k == (ids[rows, None] if dual else ids)
        np.not_equal(wrong, leq[rows], out=wrong)
        if wrong.any() or k.min() < 0:
            return None
    return join


def _bounds(leq: np.ndarray, dual: bool = False):
    """(join, ok, pos), or the intransitive pair, of leq (of leq.T when
    ``dual``) as :func:`_joins` gives them, or (join, None, None) from
    :func:`_signature_joins`, which tries first: every pair has its join."""
    join = _signature_joins(leq, dual)
    if join is not None:
        return join, None, None
    return _joins(leq.T if dual else leq)


def _reverses_order(leq: np.ndarray, ortho: np.ndarray) -> bool:
    """Whether the permutation ortho is an involution that reverses the order.

    An involution o reverses the order iff S[c, b] = leq[o[c], b] is
    symmetric (put a = o[c] in a <= b => o[b] <= o[a]), which the tiles of
    :func:`_first_upper_pair` decide, each gathered by rows of the order.
    """
    n = leq.shape[0]
    if (ortho[ortho] != np.arange(n)).any():
        return False
    return _first_upper_pair(
        n, lambda rows, cols: leq[ortho[rows], cols] != leq[ortho[cols], rows].T) is None


def _ortho_witness(leq: np.ndarray, ortho: np.ndarray) -> tuple[int, ...] | None:
    """None when the permutation ortho is an involution that reverses the
    order; else (a,) for the first a with a'' != a, else the first pair
    (a, b), in row-major order, with a <= b but not b' <= a'.  Each block
    gathers its n x rows slice of the order, columns first; the decision
    alone is :func:`_reverses_order`."""
    n = leq.shape[0]
    inv = ortho[ortho] != np.arange(n)
    if inv.any():
        return (int(np.argmax(inv)),)
    return _first_pair(
        n, n, lambda rows: leq[rows] & ~leq.take(ortho[rows], axis=1).take(ortho, axis=0).T
    )


def bound_tables(leq: np.ndarray, ortho=None):
    """All-pairs greatest lower / least upper bounds of a partial order.

    Returns (meet, join, status, a, b), the tables of type
    ``index_dtype(n)``; status != STATUS_OK flags the first
    pair (a, b), in row-major order, without a unique bound (a missing meet
    reported before a missing join in the same row); the tables are then
    not valid.  ``leq`` must be reflexive and antisymmetric (the signature
    path's lookup relies on it); if it is not transitive the status is
    STATUS_NOT_TRANSITIVE, with no tables, and (a, b) is the first pair of
    leq.leq & ~leq, named by :func:`_upper_counts`.  Joins come from
    :func:`_signature_joins` when it answers, else from the search of
    :func:`_joins`, which decides every status and witness.  When ``ortho``
    (a permutation) is an involution that reverses the order, meets are read
    from the join table by De Morgan, a ^ b = (a' v b')'; otherwise they
    are the joins of the reversed order, taken the same way.
    """
    leq = np.ascontiguousarray(leq, dtype=bool)
    o = None if ortho is None else np.asarray(ortho, np.int64)
    return _bound_tables(leq, o if o is not None and _reverses_order(leq, o) else None)


def _bound_tables(leq: np.ndarray, o):
    """:func:`bound_tables` of a bool order with the reversal decided: ``o``
    is an involution that reverses the order (:func:`_reverses_order`),
    whose De Morgan meets are taken, or None.  ``FiniteOML`` passes the
    verdict it keeps, so the reversal is decided once per lattice."""
    n = leq.shape[0]
    joins = _bounds(leq)
    if len(joins) == 2:
        return None, None, STATUS_NOT_TRANSITIVE, *joins
    join, ok, pos = joins
    if o is not None:
        oi = o.astype(join.dtype)
        meet = np.empty_like(join)
        for rows in row_blocks(n, join.itemsize * n):
            meet[rows] = oi.take(join.take(o[rows], axis=0).take(o, axis=1))
        # (a, b) has a meet iff (a', b') has a join
        meet_ok, meet_pos = ok, None if pos is None else pos[o]
    else:
        meet, meet_ok, meet_pos = _bounds(leq, dual=True)
    meet_rows = np.ones(n, bool) if meet_ok is None else meet_ok.all(axis=1)[meet_pos]
    join_rows = np.ones(n, bool) if ok is None else ok.all(axis=1)[pos]
    bad = ~(meet_rows & join_rows)
    if not bad.any():
        return meet, join, STATUS_OK, -1, -1
    r = int(np.argmax(bad))
    if not meet_rows[r]:
        return meet, join, STATUS_NO_MEET, r, int(np.argmin(meet_ok[meet_pos[r], meet_pos]))
    return meet, join, STATUS_NO_JOIN, r, int(np.argmin(ok[pos[r], pos]))


# ---------------------------------------------------------------------------
# law checks


def distributivity_witness(meet, join):
    """First triple violating a ^ (b v c) == (a ^ b) v (a ^ c), in row-major
    order, else (-1,)*3.

    Skips the row of each a comparable to every element (meet[a, x] is a or
    x), bottom and top among them: if a <= b or a <= c both sides are a, and
    if b, c <= a both are b v c.
    """
    n = meet.shape[0]
    idx = np.arange(n)
    for a in range(n):
        ma = meet[a]
        if ((ma == a) | (ma == idx)).all():
            continue
        # [b, c] -> a ^ (b v c) against (a ^ b) v (a ^ c)
        bc = _first_pair(n, join.itemsize * n, lambda rows: ma.take(join[rows]) != join.take(
            ma[rows], axis=0).take(ma, axis=1))
        if bc:
            return a, *bc
    return -1, -1, -1


def _unjoined(leq: np.ndarray, elements) -> np.ndarray:
    """[x] -> whether x is not the join of the given elements below it.

    With c(x) the number of them at or below x, x is their join exactly when
    no y < x has c(y) = c(x): y <= x makes y's set a subset of x's, so equal
    counts mean equal sets, and the join of x's set is such a y unless it is
    x.  The counts are of the narrowest type that holds them, and each row
    block of [y, x] -> y <= x and c(y) = c(x) is ORed over y.
    """
    n = leq.shape[0]
    elements = np.asarray(elements, np.int64)
    c = np.zeros(n, np.uint8 if elements.size < 256 else index_dtype(elements.size + 1))
    for part in row_blocks(elements.size, n):
        c += leq[elements[part]].sum(axis=0, dtype=c.dtype)
    bad = np.zeros(n, bool)
    for rows in row_blocks(n, n):
        block = leq[rows] & (c[rows, None] == c)
        block.reshape(-1)[rows.start::n + 1] = False  # y = x
        bad |= block.any(axis=0)
    return bad


def _distributive(leq: np.ndarray, down: np.ndarray) -> bool:
    """Whether the lattice is distributive: exactly when every element is the
    join of the join-primes below it (Birkhoff; Davey & Priestley,
    *Introduction to Lattices and Order*, 2002), which the count test of
    :func:`_unjoined` decides.  A distributive lattice is the lattice of
    down-sets of its join-primes, so one with more than 2^|primes| elements
    is not, and no count runs.  p != 0 is join-prime iff {x : p </= x} is a
    principal ideal, that is, iff the member of that set with the largest
    down-set has a down-set as large as the set.  ``down`` holds the
    down-set sizes (``FiniteOML.downset_sizes``), all positive, so the
    product below is 0 off the set; counts stay in down's type."""
    n = leq.shape[0]
    primes = []
    for rows in row_blocks(n, down.itemsize * n):
        outside = ~leq[rows]  # [p, x] -> p </= x
        top = (outside * down).argmax(axis=1)
        size = outside.sum(axis=1, dtype=down.dtype)
        primes.append(rows.start + np.flatnonzero(down[top] == size))
    primes = np.concatenate(primes)
    return n <= 1 << primes.size and not _unjoined(leq, primes).any()


def _orthomodular(leq: np.ndarray, meet: np.ndarray, ortho: np.ndarray, bottom: int) -> bool:
    """Whether an ortholattice is orthomodular: exactly when a <= b and
    a' ^ b = 0 force a = b (Kalmbach, *Orthomodular Lattices*, 1983), that
    is, when no pair a < b has meet[a', b] == bottom.  Each block gathers
    rows of the meet table only.  The equivalence rests on the ortholattice
    axioms; on any other map :func:`orthomodularity_witness` decides."""
    n = leq.shape[0]

    def bad(rows):  # [a, b] -> a < b and a' ^ b == 0
        out = leq[rows] & (meet.take(ortho[rows], axis=0) == bottom)
        out.reshape(-1)[rows.start::n + 1] = False  # a = b
        return out

    return _first_pair(n, meet.itemsize * n, bad) is None


def orthomodularity_witness(leq, meet, join, ortho):
    """First pair a <= b with b != a v (b ^ a'), else (-1, -1); the meet
    table is a lattice's, so symmetric."""
    n = leq.shape[0]
    ortho = np.asarray(ortho, np.int64)
    # rows of meet at ortho[rows]: [a, b] -> a' ^ b = b ^ a'
    return _first_pair(n, 8 * n, lambda rows: leq[rows] & (
        np.take_along_axis(join[rows], meet.take(ortho[rows], axis=0), axis=1) != np.arange(n)
    )) or (-1, -1)
