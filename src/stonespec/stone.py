"""Dual ideals, quasipoints and the Stone topology of a finite lattice.

In a finite lattice every dual ideal is the principal filter of its
minimum, so ideals are keyed by a generator element; the set-of-subsets
view survives only in the brute-force oracles that ``verify`` and the
tests compare the enumerations with on small lattices.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from itertools import combinations

import numpy as np

from . import _kernels
from .errors import LatticeError
from .lattice import FiniteOML

BRUTE_FORCE_LIMIT = 12


class DualIdeal:
    """Upward-closed, meet-closed subset not containing bottom; stored via
    its minimum element (every filter in a finite lattice is principal).

    Immutable: the fields are slots, set once by the constructor, which
    checks the generator (not bottom, then in range; ``Quasipoint`` then
    checks for an atom of the lattice's cached atom set) and stores it as
    an int.  Slots and a plain constructor, not a slotted frozen dataclass,
    which is slower to build (``BENCH_21.json``)."""

    __slots__ = ("lattice", "generator")
    lattice: FiniteOML
    generator: int

    def __init__(self, lattice: FiniteOML, generator: int):
        if generator == lattice.bottom:
            raise LatticeError("a dual ideal cannot contain bottom")
        g = lattice._check(generator)
        _set_lattice(self, lattice)
        _set_generator(self, g)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.lattice, self.generator)

    def __eq__(self, other):
        # a quasipoint equals the plain ideal with the same generator
        if not isinstance(other, DualIdeal):
            return NotImplemented
        return self.lattice is other.lattice and self.generator == other.generator

    def __hash__(self):
        return hash((id(self.lattice), self.generator))

    def members(self) -> np.ndarray:
        return self.lattice.upset(self.generator)

    def member_set(self) -> frozenset[int]:
        return frozenset(int(x) for x in self.members())

    def __contains__(self, a: int) -> bool:
        return self.lattice.le(self.generator, a)

    def __repr__(self) -> str:
        return f"H({self.lattice.names[self.generator]})"


# the slots' own setters, the only writes that DualIdeal.__setattr__ lets through
_set_lattice = DualIdeal.__dict__["lattice"].__set__
_set_generator = DualIdeal.__dict__["generator"].__set__


class Quasipoint(DualIdeal):
    """A maximal dual ideal; in a finite lattice, the filter of an atom."""

    __slots__ = ()

    def __init__(self, lattice: FiniteOML, generator: int):
        DualIdeal.__init__(self, lattice, generator)
        if not lattice.is_atom(self.generator):
            raise LatticeError(
                f"{lattice.names[self.generator]!r} is not an atom; its filter is not maximal")


def principal_filter(L: FiniteOML, a: int) -> DualIdeal:
    """H_a = {b : b >= a}; rejects a = bottom."""
    return DualIdeal(L, L._check(a))


def is_dual_ideal(L: FiniteOML, subset) -> bool:
    """Check the three filter clauses directly on an element subset."""
    S = {L._check(a) for a in subset}
    if not S or L.bottom in S:
        return False
    return (all(L.meet(a, b) in S for a in S for b in S)
            and all(S.issuperset(L.upset(a).tolist()) for a in S))


def brute_force_dual_ideals(L: FiniteOML) -> list[frozenset[int]]:
    """Oracle: scan all subsets of the nonzero elements (small lattices only)."""
    nz = [int(a) for a in L.nonzero()]
    if L.n > BRUTE_FORCE_LIMIT:
        raise LatticeError(f"brute force limited to {BRUTE_FORCE_LIMIT} elements")
    found = []
    for r in range(1, len(nz) + 1):
        for combo in combinations(nz, r):
            if is_dual_ideal(L, combo):
                found.append(frozenset(combo))
    return found


def brute_force_quasipoints(L: FiniteOML) -> list[frozenset[int]]:
    """Oracle: the maximal members of the subset scan (small lattices only)."""
    all_ideals = brute_force_dual_ideals(L)
    return [s for s in all_ideals if not any(s < t for t in all_ideals)]


def enumerate_dual_ideals(L: FiniteOML) -> list[DualIdeal]:
    """All dual ideals, canonically ordered by generator index: the
    principal filters of the nonzero elements."""
    return [DualIdeal(L, a) for a in L.nonzero().tolist()]


def quasipoints(L: FiniteOML) -> list[Quasipoint]:
    """Maximal dual ideals = principal filters of atoms."""
    return [Quasipoint(L, a) for a in L.atoms()]


def quasipoints_containing(L: FiniteOML, a: int) -> list[Quasipoint]:
    """Basis set of the Stone topology: quasipoints whose filter contains a."""
    a, atoms = L._check(a), L.atom_index()
    return [Quasipoint(L, t) for t in atoms[L.le_each(atoms, a)].tolist()]


def ideals_containing(L: FiniteOML, a: int) -> list[DualIdeal]:
    """Basis set on the full dual-ideal space: {J : a in J}."""
    a = L._check(a)
    if a == L.bottom:
        return []
    return [DualIdeal(L, p) for p in L.downset(a).tolist() if p != L.bottom]


# ---------------------------------------------------------------------------
# structural reports


@dataclass
class BasisReport:
    """Failures of the basis-set identities as (kind, a, b), and the pairs
    whose join inclusion is strict: a (k, 2) index array, in row-major order."""

    passed: bool
    failures: list[tuple[str, int, int]]
    strict_union_pairs: np.ndarray


def verify_basis_identities(L: FiniteOML) -> BasisReport:
    """Check, over all pairs, the laws of D_a = {c != 0 : c <= a}: a <= b
    gives D_a <= D_b (monotone); D_{a^b} = D_a & D_b; D_a | D_b <= D_{a v b},
    strict when |D_a| + |D_b| - |D_a & D_b| < |D_{a v b}|.  D_0 = {} and
    D_1 = L - {0} hold in every FiniteOML, whose bottom lies below every
    element and top above.  So each law and size comparison holds for the
    D_a iff it does for the down-sets D_a + {0}: the packed columns of the
    order, read in row blocks of a.  |D_a & D_b| is the cached |D_{a^b}|
    where the meet law holds, and is counted where it fails."""
    n, every, kinds = L.n, np.arange(L.n), ("monotone", "meet-intersection", "join-inclusion")
    d, size = _kernels.packed_rows(L.downset_rows(slice(None))), L.downset_sizes()
    failures, strict, lacks = [], [], ~d  # lacks[c]: the elements not below c
    for rows in _kernels.row_blocks(n, d.nbytes):  # a row of a block: a against every b
        da, meets, joins = d[rows, None], L.meet_each(every[rows, None], every), L.join_rows(rows)
        both, outside = da & d, da | d
        outside &= lacks.take(joins, axis=0)
        bad = np.stack([L.upset_rows(rows) & (both != da).any(axis=2),
                        (both != d.take(meets, axis=0)).any(axis=2), outside.any(axis=2)], axis=2)
        failures += [(kinds[i % 3], rows.start + i // (3 * n), i // 3 % n)
                     for i in np.flatnonzero(bad).tolist()]  # [a, b, kind], row-major
        common, wrong = size[meets], bad[..., 1]
        common[wrong] = np.bitwise_count(both[wrong]).sum(axis=1, dtype=size.dtype)
        k = np.flatnonzero(~bad[..., 2] & (size[rows, None] + size - common < size[joins]))
        pairs = np.stack([rows.start + k // n, k % n], axis=1)
        strict.append(pairs.astype(_kernels.index_dtype(n)))
    return BasisReport(not failures, failures, np.concatenate(strict))


@dataclass
class FilterIntersectionReport:
    """Per-element verdict that H_P equals the intersection of all
    quasipoints containing P."""

    passed: bool
    mismatches: list[int] = field(default_factory=list)


def verify_principal_intersection(L: FiniteOML) -> FilterIntersectionReport:
    rep = FilterIntersectionReport(passed=True)
    atoms = L.atom_index()
    points = L.upset_rows(atoms)  # row i: the members of the quasipoint of atoms[i]
    for p in L.nonzero().tolist():
        # the quasipoints containing p (some atom lies below any p != 0)
        through = points[L.le_each(atoms, p)]
        if (through.all(axis=0) != L.upset_rows(p)).any():
            rep.mismatches.append(p)
    rep.passed = not rep.mismatches
    return rep


# ---------------------------------------------------------------------------
# topology on the space of dual ideals


def ideal_closure(L: FiniteOML, ideals: list[DualIdeal]) -> list[DualIdeal]:
    """Topological closure of a set of dual ideals under the basis {D_a}.

    H_p lies in the closure iff every basis neighbourhood D_a of H_p meets
    the set, i.e. iff every a >= p dominates some generator in the set.
    """
    if not ideals:
        return []
    gens = sorted({i.generator for i in ideals})
    covered = L.upset_rows(gens).any(axis=0)  # covered[a]: some q <= a
    out = []
    for p in L.nonzero():
        if covered[L.upset(int(p))].all():
            out.append(DualIdeal(L, int(p)))
    return out


def basis_closure(L: FiniteOML, p: int) -> list[DualIdeal]:
    """Fast path for the closure of a basis set D_p: J is in the closure iff
    every member of J meets p."""
    p = L._check(p)
    if p == L.bottom:
        return []
    out = []
    for g in L.nonzero():
        ups = L.upset(int(g))
        if (L.meet_each(p, ups) != L.bottom).all():
            out.append(DualIdeal(L, int(g)))
    return out


def stone_density(L: FiniteOML) -> bool:
    """Every nonempty basis set D_a contains a quasipoint (atomicity)."""
    return bool(L.upset_rows(L.atom_index()).any(axis=0)[L.nonzero()].all())


def complement_covers(L: FiniteOML, a: int) -> bool:
    """Whether Q_a and Q_{a'} together exhaust the Stone spectrum."""
    a, atoms = L._check(a), L.atom_index()
    return bool((L.le_each(atoms, a) | L.le_each(atoms, L.complement(a))).all())
