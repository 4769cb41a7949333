"""Finite bounded lattices with an orthocomplementation.

Elements are integer indices into a fixed boolean order matrix ``leq``
(``leq[i, j]`` means i <= j).  Meets and joins are precomputed into n x n
tables at construction, of the narrowest integer type that holds n - 1
(``_kernels.index_dtype``: int16, two bytes a pair, while n <= 2^15);
construction fails fast if the order is not a partial order or some pair
lacks a unique bound.  Transitivity is proved by the meet-irreducible
signatures that give the joins in O(n^2) (``_kernels._signature_joins``)
when the lattice has few irreducibles, else read from the join search's
counts (the one n^3 product), which also name the witness of an
intransitive order; antisymmetry from square tiles on and right of the
diagonal, ``_kernels._first_upper_pair``, never from column slabs.
Permutation gathers of the order and the tables take rows, then columns,
never the 2-D ``np.ix_`` gather.  The orthocomplement is stored as a
permutation but its axioms (involution, order reversal, complement laws,
orthomodularity) are *verdicts* reported by :func:`verify_structure`, not
construction requirements -- non-orthomodular examples such as the benzene
hexagon must be representable.  Each verdict is a fast decision, each
decided once (order reversal at construction, which the De Morgan meets
use too); the law scans behind the witnesses run only on a lattice that
fails it.

A lattice is immutable after construction and safe to share between
threads; all operations are pure.  Indices are never mixed between
different lattices: every operation goes through the owning instance.

Only this module, ``_kernels``, ``io`` and ``corpus`` know that a lattice is
four dense arrays (``leq``, ``ortho``, ``meet_table``, ``join_table``).  The
modules above read the order through the methods: ``le``, ``meet``,
``join``, ``complement``, ``upset``, ``downset``, ``atoms``, ``is_atom`` and
``downset_sizes``, the read-only index arrays ``atom_index`` and ``nonzero``
for gathers, and the vector forms of one gather each,
``upset_rows``, ``downset_rows``, ``join_rows``, ``le_each``, ``meet_each``
and ``complement_each``, with ``relabeled`` for a permuted copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import LatticeError

MAX_SUBLATTICE = 4096

# Bytes per ordered pair of elements that loading and checking a lattice holds
# at once, at most.  Two order matrices: the closure and the lattice's copy
# (1 + 1); the file's relation is freed when the closure returns.  A lattice
# with few irreducibles takes its tables from signatures (two int16 tables,
# 2 + 2, while n <= 2^15, and row blocks): 6.59 bytes per pair traced on
# 2^11, 6.55 with the meets from the reversed order's signatures, 7.24 on
# 2^10.  The join search, which runs where the signatures decline, holds the
# join table and its ok mask (2 + 1).  When the meets are searched as the
# joins of the reversed order, that search's product holds a float32 copy of
# the order and the float32 counts (4 + 4): 13 in all.  The copy is freed
# before the counts are cast to the index type (2), which the search keeps.
# De Morgan meets skip that search, and the join search holds 10 at its
# product.  On top come the packed rows (1/8) and the search's word blocks
# and the closure's pair index arrays, which do not grow with n^2.  16
# bounds the search (13.63 bytes per pair traced on 2^11 with a direct
# search, 14.02 on 2^10, where the fixed blocks weigh more).
LATTICE_PAIR_BYTES = 16
# A lattice, read from a file or generated (2^m), whose n^2 tables would pass
# this many bytes is refused before they are allocated: n <= 8192 fit.
LATTICE_BYTES_CAP = 1 << 30


def _check_table_budget(n: int, error: type[ValueError] = LatticeError, where: str = "") -> None:
    """Raise error(where + why) if the tables of n elements pass the cap.  In
    integers, so finite for any n; the GiB round as need / 2^30 formats."""
    need = LATTICE_PAIR_BYTES * n * n
    if need > LATTICE_BYTES_CAP:
        cents = (100 * need + (1 << 29)) >> 30  # 1600 n^2 is no odd multiple of 2^29: no tie
        raise error(f"{where}{n} elements need about {cents // 100}.{cents % 100:02d} GiB "
                    f"for the n^2 tables, past the cap of {LATTICE_BYTES_CAP / 2**30:g} GiB")


def _as_bool_matrix(leq) -> np.ndarray:
    m = np.array(leq, dtype=bool)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise LatticeError(f"order matrix must be square, got shape {m.shape}")
    return m


def _reflexive_antisymmetric_problem(leq: np.ndarray) -> tuple[str, tuple[int, ...]] | None:
    n = leq.shape[0]
    diag = np.diagonal(leq)
    if not diag.all():
        i = int(np.argmin(diag))
        return "not reflexive", (i,)

    def sym(rows, cols):  # i <= j and j <= i with i != j
        out = leq[rows, cols] & leq[cols, rows].T
        if rows == cols:
            np.fill_diagonal(out, False)
        return out

    pair = _kernels._first_upper_pair(n, sym)
    return None if pair is None else ("not antisymmetric", pair)


def check_partial_order(leq: np.ndarray) -> tuple[str, tuple[int, ...]] | None:
    """Return (problem, witness) if leq is not a partial order, else None;
    the transitivity witness, the first pair of leq.leq & ~leq, is named by
    the join search's count test (``_kernels._upper_counts``)."""
    problem = _reflexive_antisymmetric_problem(leq)
    if problem is not None:
        return problem
    gap = _kernels._upper_counts(leq)[-1]
    return None if gap is None else ("not transitive", gap)


def _find_bounds(leq: np.ndarray) -> tuple[int, int]:
    bottoms = np.flatnonzero(leq.all(axis=1))
    tops = np.flatnonzero(leq.all(axis=0))
    if bottoms.size != 1:
        raise LatticeError(f"bottom element not unique (candidates {bottoms.tolist()})")
    if tops.size != 1:
        raise LatticeError(f"top element not unique (candidates {tops.tolist()})")
    return int(bottoms[0]), int(tops[0])


class FiniteOML:
    """A finite bounded lattice carrying an orthocomplement permutation.

    Parameters
    ----------
    names:
        One display label per element, unique; their number must fit ``LATTICE_BYTES_CAP``.
    leq:
        Boolean order matrix, ``leq[i, j]`` iff element i <= element j.
        Must already be reflexively and transitively closed.
    ortho:
        Permutation array, ``ortho[a]`` is the orthocomplement a'.
    tables:
        Optional precomputed ``(meet, join)`` tables for constructions whose
        bounds are known analytically (e.g. subset lattices), cast to
        ``_kernels.index_dtype(n)`` (int16 while n <= 2^15). They are
        trusted, and vouch for the transitivity of ``leq``; pass None to have
        them computed and the whole order checked.
    """

    __slots__ = ("n", "names", "leq", "ortho", "bottom", "top", "meet_table",
                 "join_table", "_reverses", "_atoms", "_atom_index", "_atom_set", "_down",
                 "_nonzero", "_name_index")

    def __init__(
        self,
        names: Sequence[str],
        leq,
        ortho,
        *,
        tables: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        names = [str(s) for s in names]
        _check_table_budget(len(names))
        leq = _as_bool_matrix(leq)
        n = leq.shape[0]
        if len(names) != n:
            raise LatticeError(f"{n} elements but {len(names)} names")
        if len(set(names)) != n:
            raise LatticeError("element names must be unique")
        ortho = np.asarray(ortho, dtype=np.int64)
        if ortho.shape != (n,) or sorted(ortho.tolist()) != list(range(n)):
            raise LatticeError("ortho must be a permutation of the element indices")
        problem = _reflexive_antisymmetric_problem(leq)
        reverses = None
        if problem is None and tables is None:
            reverses = _kernels._reverses_order(leq, ortho)
            meet, join, status, a, b = _kernels._bound_tables(leq, ortho if reverses else None)
            if status == _kernels.STATUS_NOT_TRANSITIVE:
                problem = "not transitive", (a, b)
        if problem is not None:
            what, wit = problem
            raise LatticeError(f"order is {what}, witness {wit}")
        bottom, top = _find_bounds(leq)
        if bottom == top:
            raise LatticeError("lattice needs distinct bottom and top")
        if tables is None:
            if status == _kernels.STATUS_NO_MEET:
                raise LatticeError(f"pair ({names[a]}, {names[b]}) has no unique meet")
            if status == _kernels.STATUS_NO_JOIN:
                raise LatticeError(f"pair ({names[a]}, {names[b]}) has no unique join")
        else:
            meet, join = (np.asarray(t, dtype=_kernels.index_dtype(n)) for t in tables)
        self.n = n
        self.names = tuple(names)
        self.leq = leq
        self.ortho = ortho
        self.bottom = bottom
        self.top = top
        self.meet_table = meet
        self.join_table = join
        self._reverses: bool | None = reverses
        self._atoms: tuple[int, ...] | None = None
        self._atom_index: np.ndarray | None = None
        self._atom_set: frozenset[int] | None = None
        self._down: np.ndarray | None = None
        self._nonzero = np.delete(np.arange(n, dtype=np.int64), bottom)
        self._name_index = {s: i for i, s in enumerate(names)}
        for arr in (self.leq, self.ortho, self.meet_table, self.join_table, self._nonzero):
            arr.setflags(write=False)

    # -- basic queries ----------------------------------------------------

    def _check(self, a: int) -> int:
        a = int(a)
        if not 0 <= a < self.n:
            raise IndexError(f"element index {a} out of range [0, {self.n})")
        return a

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[self._check(a), self._check(b)])

    def meet(self, a: int, b: int) -> int:
        return int(self.meet_table[self._check(a), self._check(b)])

    def join(self, a: int, b: int) -> int:
        return int(self.join_table[self._check(a), self._check(b)])

    def big_meet(self, elements: Iterable[int]) -> int:
        out = self.top  # empty infimum
        for a in elements:
            out = int(self.meet_table[out, self._check(a)])
        return out

    def big_join(self, elements: Iterable[int]) -> int:
        out = self.bottom  # empty supremum
        for a in elements:
            out = int(self.join_table[out, self._check(a)])
        return out

    def complement(self, a: int) -> int:
        return int(self.ortho[self._check(a)])

    def downset_sizes(self) -> np.ndarray:
        """|{b : b <= a}| for every element a (the column counts of leq),
        computed once."""
        if self._down is None:
            self._down = self.leq.sum(axis=0, dtype=_kernels.index_dtype(self.n + 1))
            self._down.setflags(write=False)
        return self._down

    def atoms(self) -> tuple[int, ...]:
        """Elements covering bottom: those whose down-set is {bottom, a}."""
        if self._atoms is None:
            index = np.flatnonzero(self.downset_sizes() == 2)
            index.setflags(write=False)
            self._atom_index = index
            self._atoms = tuple(index.tolist())
            self._atom_set = frozenset(self._atoms)
        return self._atoms

    def atom_index(self) -> np.ndarray:
        """The atoms as an ascending index array (read-only), for gathers."""
        if self._atom_index is None:
            self.atoms()
        return self._atom_index

    def is_atom(self, a: int) -> bool:
        if self._atom_set is None:
            self.atoms()
        return a in self._atom_set

    def reverses_order(self) -> bool:
        """Whether ortho is an involution that reverses the order
        (``_kernels._reverses_order``): decided at construction when the
        tables are computed, else on first use."""
        if self._reverses is None:
            self._reverses = _kernels._reverses_order(self.leq, self.ortho)
        return self._reverses

    def downset(self, a: int) -> np.ndarray:
        """Indices of {b : b <= a}."""
        return np.flatnonzero(self.leq[:, self._check(a)])

    def upset(self, a: int) -> np.ndarray:
        """Indices of {b : b >= a}."""
        return np.flatnonzero(self.leq[self._check(a)])

    # -- vector forms -----------------------------------------------------
    # One gather each, over an index, a sequence or an array of indices (the
    # row forms also take a slice).  They check no range, which would cost as
    # much as the gather on a short array: an index past n raises IndexError,
    # and a negative one counts from the end, as in numpy.

    def upset_rows(self, a) -> np.ndarray:
        """Boolean rows, [i, b] iff a[i] <= b (a view for a slice)."""
        return self.leq[a, :]

    def downset_rows(self, a) -> np.ndarray:
        """Boolean rows, [i, b] iff b <= a[i]: the gathered columns,
        transposed as a view."""
        return self.leq[:, a].T

    def join_rows(self, a) -> np.ndarray:
        """Rows of joins, [i, b] = a[i] v b (a view for a slice)."""
        return self.join_table[a, :]

    def le_each(self, a, b) -> np.ndarray:
        """a <= b elementwise, broadcast."""
        return self.leq[a, b]

    def meet_each(self, a, b) -> np.ndarray:
        """a ^ b elementwise, broadcast."""
        return self.meet_table[a, b]

    def complement_each(self, a) -> np.ndarray:
        """a' elementwise."""
        return self.ortho[a,]

    def relabeled(self, perm) -> FiniteOML:
        """This lattice with element i renamed perm[i], built from the
        permuted order and orthocomplement."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.n,) or sorted(perm.tolist()) != list(range(self.n)):
            raise LatticeError("perm must be a permutation of the element indices")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.n)
        return FiniteOML([self.names[i] for i in inv.tolist()],
                         self.leq.take(inv, axis=0).take(inv, axis=1), perm[self.ortho[inv]])

    def name(self, a: int) -> str:
        return self.names[self._check(a)]

    def index(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise KeyError(f"no element named {name!r}") from None

    def nonzero(self) -> np.ndarray:
        """Indices of every element but bottom, ascending (read-only)."""
        return self._nonzero

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with j covering i, in row-major order.  With the
        elements sorted by up-set size, largest first, whatever lies below a
        candidate comes at a lower bit; so each round, every row takes its
        lowest candidate left as a cover k, and clears k and up(k)."""
        by_up = np.argsort(-self.leq.sum(axis=1), kind="stable")
        le = self.leq.take(by_up, axis=0).take(by_up, axis=1)
        up = _kernels.packed_rows(le)  # [i, k]: by_up[i] <= by_up[k]
        np.fill_diagonal(le, False)
        left, cov = _kernels.packed_rows(le), np.zeros_like(le)
        rows = np.flatnonzero(left.any(axis=1))
        while rows.size:
            w = (left[rows] != 0).argmax(axis=1)
            low = left[rows, w] & -left[rows, w]
            k = np.bitwise_count(low - np.uint64(1)) + 64 * w
            cov[by_up[rows], by_up[k]] = True
            left[rows] &= ~up[k]
            rows = rows[left[rows].any(axis=1)]
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(cov))]

    def __repr__(self) -> str:
        return f"FiniteOML({self.n} elements, bottom={self.names[self.bottom]!r}, top={self.names[self.top]!r})"


# ---------------------------------------------------------------------------
# structural verification


@dataclass
class StructureReport:
    """Boolean verdicts plus a witness tuple (element indices) per failure.

    ``order_problem`` is set instead of the verdicts when the raw relation is
    not even a partial order; dependent verdicts are then None.
    """

    is_lattice: bool | None = None
    is_ortho_complemented: bool | None = None
    is_orthomodular: bool | None = None
    is_distributive: bool | None = None
    is_boolean: bool | None = None
    is_atomistic: bool | None = None
    order_problem: str | None = None
    witnesses: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def is_orthomodular_lattice(self) -> bool:
        return bool(self.is_lattice and self.is_ortho_complemented and self.is_orthomodular)

    def to_dict(self) -> dict:
        return {
            "is_lattice": self.is_lattice,
            "is_ortho_complemented": self.is_ortho_complemented,
            "is_orthomodular": self.is_orthomodular,
            "is_distributive": self.is_distributive,
            "is_boolean": self.is_boolean,
            "is_atomistic": self.is_atomistic,
            "order_problem": self.order_problem,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def _ortho_complement_verdict(L: FiniteOML) -> tuple[bool, tuple[int, ...] | None]:
    o = L.ortho
    if not L.reverses_order():
        return False, _kernels._ortho_witness(L.leq, o)
    idx = np.arange(L.n)
    bad_meet = L.meet_table[idx, o] != L.bottom
    if bad_meet.any():
        return False, (int(np.argmax(bad_meet)),)
    bad_join = L.join_table[idx, o] != L.top
    if bad_join.any():
        return False, (int(np.argmax(bad_join)),)
    return True, None


def _atomistic_verdict(L: FiniteOML, distributive: bool) -> tuple[bool, tuple[int, ...] | None]:
    """Whether every element is the join of the atoms below it, else the first
    that is not.  A distributive lattice is atomistic exactly when it is the
    power set of its atoms (atoms are join-prime there, so x -> the atoms
    below x is one-to-one onto the subsets), that is, when n = 2^|atoms|; the
    count test of ``_kernels._unjoined`` decides the others and names the
    witness."""
    atoms = L.atoms()
    if distributive and L.n == 1 << len(atoms):
        return True, None
    bad = _kernels._unjoined(L.leq, atoms)
    if bad.any():
        return False, (int(np.argmax(bad)),)
    return True, None


def verify_structure(L: FiniteOML) -> StructureReport:
    """Run all structural checks on a constructed lattice.

    Order reversal is the verdict the lattice decided at construction
    (:meth:`FiniteOML.reverses_order`).  Distributivity is decided on every
    lattice by its join-primes in O(n^2), over the cached down-set sizes:
    a lattice with more than 2^|primes| elements is not distributive, and
    the count test of ``_kernels._unjoined`` decides the others; the O(n^3)
    triple scan runs only to find the witness of a failure.
    Orthomodularity is decided on an ortholattice by one O(n^2) row test
    (``_kernels._orthomodular``); the gather of every a v (b ^ a') runs
    only when the orthocomplement test or that decision fails, to name the
    witness (and to decide, off the ortholattice axioms).  Atomism is read
    off distributivity when the lattice is distributive (n = 2^|atoms|),
    else decided, with its witness, by the same count test over the atoms.
    """
    rep = StructureReport(is_lattice=True)
    ok, wit = _ortho_complement_verdict(L)
    rep.is_ortho_complemented = ok
    if wit is not None:
        rep.witnesses["is_ortho_complemented"] = wit
    if ok and _kernels._orthomodular(L.leq, L.meet_table, L.ortho, L.bottom):
        rep.is_orthomodular = True
    else:
        a, b = _kernels.orthomodularity_witness(L.leq, L.meet_table, L.join_table, L.ortho)
        rep.is_orthomodular = a < 0
        if a >= 0:
            rep.witnesses["is_orthomodular"] = (a, b)
    rep.is_distributive = _kernels._distributive(L.leq, L.downset_sizes())
    if not rep.is_distributive:
        rep.witnesses["is_distributive"] = _kernels.distributivity_witness(
            L.meet_table, L.join_table)
    rep.is_boolean = bool(rep.is_distributive and rep.is_ortho_complemented)
    ok, wit = _atomistic_verdict(L, rep.is_distributive)
    rep.is_atomistic = ok
    if wit is not None:
        rep.witnesses["is_atomistic"] = wit
    return rep


def inspect_order(names: Sequence[str], leq, ortho) -> tuple[StructureReport, FiniteOML | None]:
    """Like :func:`verify_structure` but on raw data: malformed orders and
    missing bounds are reported in the result instead of raised."""
    try:
        L = FiniteOML(names, leq, ortho)
    except LatticeError as exc:
        rep = StructureReport(is_lattice=False, order_problem=str(exc))
        return rep, None
    return verify_structure(L), L


# ---------------------------------------------------------------------------
# sublattices


def sublattice_from_members(
    L: FiniteOML,
    members: Iterable[int],
    ortho_map: dict[int, int] | None = None,
) -> tuple[FiniteOML, np.ndarray]:
    """Build the induced lattice on a meet/join-closed member set.

    Elements are reindexed canonically by (number of members below, parent
    index) so that the same member set always yields the same lattice.
    Returns the new lattice and the embedding array (sub index -> parent
    index).
    """
    mem = sorted({L._check(m) for m in members})
    sub = L.leq.take(mem, axis=0).take(mem, axis=1)
    downsize = sub.sum(axis=0)
    order = sorted(range(len(mem)), key=lambda k: (int(downsize[k]), mem[k]))
    embed = np.array([mem[k] for k in order], dtype=np.int64)
    back = {int(p): i for i, p in enumerate(embed)}
    sub_leq = L.leq.take(embed, axis=0).take(embed, axis=1)
    if ortho_map is None:
        ortho_map = {int(p): int(L.ortho[p]) for p in embed}
    try:
        sub_ortho = np.array([back[ortho_map[int(p)]] for p in embed], dtype=np.int64)
    except KeyError as exc:
        raise LatticeError(f"orthocomplement leaves the member set at element {exc}") from None
    names = [L.names[int(p)] for p in embed]
    # bounds within a closed member set are the parent bounds; -1 marks one
    # outside the set, which tables trusted by FiniteOML must not hold
    inv = np.full(L.n, -1, _kernels.index_dtype(len(embed)))
    inv[embed] = np.arange(len(embed))
    sub_meet, sub_join = (
        inv[t.take(embed, axis=0).take(embed, axis=1)] for t in (L.meet_table, L.join_table)
    )
    for what, t in (("meet", sub_meet), ("join", sub_join)):
        if (t < 0).any():
            i, j = np.argwhere(t < 0)[0]
            raise LatticeError(f"{what} of {names[i]!r} and {names[j]!r} leaves the member set")
    return FiniteOML(names, sub_leq, sub_ortho, tables=(sub_meet, sub_join)), embed


def generated_sublattice(
    L: FiniteOML,
    generators: Iterable[int],
    max_size: int = MAX_SUBLATTICE,
) -> tuple[FiniteOML, np.ndarray]:
    """Smallest sub-ortholattice containing the generators.

    Closes under meet, join and orthocomplement; always contains bottom and
    top.  Aborts with :class:`LatticeError` once the closure exceeds
    ``max_size`` elements.
    """
    members = {L.bottom, L.top}
    members.update(L._check(g) for g in generators)
    while True:
        if len(members) > max_size:
            raise LatticeError(
                f"generated sublattice exceeds the {max_size}-element bound"
            )
        current = sorted(members)
        new = set(L.ortho[current].tolist())
        for i, a in enumerate(current):
            new.update(L.meet_table[a, current[i + 1:]].tolist())
            new.update(L.join_table[a, current[i + 1:]].tolist())
        new -= members
        if not new:
            break
        members |= new
    return sublattice_from_members(L, members)


def principal_ideal(L: FiniteOML, a: int) -> tuple[FiniteOML, np.ndarray]:
    """The lattice on {b : b <= a} with relative complement b -> a ^ b'."""
    a = L._check(a)
    if a == L.bottom:
        raise LatticeError("principal ideal of bottom is trivial")
    members = [int(b) for b in L.downset(a)]
    ortho_map = {b: int(L.meet_table[a, L.ortho[b]]) for b in members}
    vals = sorted(ortho_map.values())
    if vals != sorted(members):
        raise LatticeError(
            f"relative complement is not a permutation below {L.names[a]!r}"
        )
    return sublattice_from_members(L, members, ortho_map)
