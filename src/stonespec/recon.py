"""Observable functions as data: the increasing-function correspondence and
the reconstruction of a spectral family from its dual-ideal function.

Equality of tables is exact throughout: reconstruction only moves float
values between containers, never performs arithmetic on them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import _kernels
from .errors import LatticeError, NotObservableError
from .lattice import FiniteOML
from .spectral import (
    ObservableTable,
    SpectralFamily,
    make_spectral_family,
    mirrored_fn,
    observable_fn,
    sorted_unique,
)


def _sublevel_family(L: FiniteOML, values) -> SpectralFamily | None:
    """The spectral family whose observable function is the table, or None.

    A table f is an observable function exactly when each sublevel set
    {p != 0 : f(p) <= lam}, with bottom, is a principal ideal; its generator
    E_lam is then the element of level lam with the largest down-set.  So the
    table is accepted when these candidates form a chain, every nonzero p lies
    below the candidate of its own level, and each sublevel set with bottom
    has as many members as the candidate's down-set, which it then is (at the
    last level the whole lattice, so the chain ends at top).  O(n log n) from
    the down-set sizes.  A NaN on a nonzero element rejects; infinite levels
    are kept, and the callers that return the family refuse them.
    """
    nz = L.nonzero()
    v = np.asarray(values, dtype=np.float64)[nz]
    if np.isnan(v).any():
        return None
    # the levels as np.unique picks them (its sort decides whether a zero level
    # reads -0.0 or 0.0); searchsorted finds either zero's level
    levels = sorted_unique(v)
    level = np.searchsorted(levels, v)
    down = L.downset_sizes()
    order = np.lexsort((down[nz], level))  # by level, then by down-set size
    sizes = np.cumsum(np.bincount(level, minlength=len(levels)))
    cand = nz[order[sizes - 1]]
    if not (
        (down[cand] == sizes + 1).all()
        and L.le_each(cand[:-1], cand[1:]).all()
        and L.le_each(nz, cand[level]).all()
    ):
        return None
    return SpectralFamily(L, levels, cand)


def _max_law_witness(L: FiniteOML, values) -> tuple[int, int] | None:
    """First nonzero pair (a, b), a <= b as indices, in row-major order with
    f(a v b) != max(f(a), f(b)); max is Python's, so a NaN wins only as its
    first argument.  The n^2 pairs are compared in row blocks of the kernels'
    scan budget, so no n x n temporary is built."""
    v = np.asarray(values, dtype=np.float64)

    def bad(rows):
        # np.fmax(x, y) is max(x, y) unless x is NaN, where (x, x) fails anyway;
        # bad is symmetric, so its first entry in row-major order has a <= b
        out = v[L.join_rows(rows)] != np.fmax(v[rows, None], v[None, :])
        out[:, L.bottom] = False
        if rows.start <= L.bottom < rows.stop:
            out[L.bottom - rows.start] = False
        return out

    return _kernels._first_pair(L.n, 8 * L.n, bad)


def is_completely_increasing(
    L: FiniteOML, r: ObservableTable
) -> tuple[bool, tuple[int, int] | None]:
    """Pairwise max law r(a v b) == max(r(a), r(b)) over all nonzero pairs.

    For a finite lattice the pairwise law is equivalent to the law for
    arbitrary families (by induction on the family); the brute-force
    equivalence is exercised separately in the suites.  The law holds
    exactly when the sublevel sets are principal ideals, which decides it in
    O(n log n); only a failing table is scanned pair by pair, for its
    witness: the first failing pair (a, b), a <= b as indices, in row-major
    order.
    """
    if _sublevel_family(L, r.values) is not None:
        return True, None
    witness = _max_law_witness(L, r.values)
    return witness is None, witness


def _filter_minima(L: FiniteOML, values: np.ndarray) -> np.ndarray:
    """min of values over each principal filter {q : q >= p}, p nonzero.

    A NaN anywhere in a filter makes its minimum NaN, as with np.min.
    """
    v = np.asarray(values, dtype=np.float64)
    nz = L.nonzero()
    return np.min(np.broadcast_to(v, (nz.size, L.n)), axis=1, where=L.upset_rows(nz),
                  initial=np.inf)


def family_law_holds(L: FiniteOML, r: ObservableTable) -> bool:
    """Brute force: r of a join equals the max over *every* nonzero subset.

    Exponential; intended for lattices of at most a dozen elements as the
    independent oracle for :func:`is_completely_increasing`.
    """
    nz = [int(p) for p in L.nonzero()]
    for size in range(1, len(nz) + 1):
        for subset in itertools.combinations(nz, size):
            j = L.big_join(subset)
            if float(r.values[j]) != max(float(r.values[p]) for p in subset):
                return False
    return True


def f_from_r(L: FiniteOML, r: ObservableTable) -> ObservableTable:
    """Extend an increasing set function to ideals by minimizing over members.

    The min over the principal filter of p is attained at its generator when
    r is completely increasing, so the result is r's own values (NaN at
    bottom); a table that is not raises :class:`NotObservableError` with the
    first pair off the max law.
    """
    ok, witness = is_completely_increasing(L, r)
    if not ok:
        raise NotObservableError(
            f"not completely increasing at pair {witness}", witness
        )
    vals = np.array(r.values, dtype=np.float64)
    vals[L.bottom] = np.nan
    return ObservableTable(L, vals)


def r_from_f(f: ObservableTable) -> ObservableTable:
    """Restrict a dual-ideal function to principal filters (a value copy)."""
    return ObservableTable(f.lattice, f.values.copy())


def _observable_witness(L: FiniteOML, f: ObservableTable) -> tuple | None:
    """The first nonzero p off the min formula, else the first pair off the
    intersection law, else None."""
    nz = L.nonzero()
    bad = np.asarray(f.values, dtype=np.float64)[nz] != _filter_minima(L, f.values)
    if bad.any():
        return "min-formula", int(nz[np.argmax(bad)])
    witness = _max_law_witness(L, f.values)
    return None if witness is None else ("intersection", *witness)


def is_abstract_observable(
    L: FiniteOML, f: ObservableTable
) -> tuple[bool, tuple | None]:
    """Both axioms: the min formula over members and the intersection law.

    The intersection law reduces to the pairwise max law through the
    principal identity (an intersection of filters is the filter of the
    join), and an increasing f meets the min formula, so both hold exactly
    when the sublevel sets are principal ideals.  Only a failing table is
    scanned, for its witness.
    """
    if _sublevel_family(L, f.values) is not None:
        return True, None
    witness = _observable_witness(L, f)
    return witness is None, witness


def reconstruct(L: FiniteOML, f: ObservableTable) -> SpectralFamily:
    """Rebuild the unique spectral family whose observable function is f.

    The jump at each attained value lam is E_lam, the generator of the
    sublevel ideal {p : f(p) <= lam}: the element of level lam with the
    largest down-set, which is the join of its level set (the infimum of the
    intersection of the level filters).  The tests and
    :func:`verify_reconstruction_steps` check this.
    """
    family = _sublevel_family(L, f.values)
    if family is None:
        witness = _observable_witness(L, f)
        raise NotObservableError(f"table is not an observable function: {witness}", witness)
    if not np.isfinite(family.thresholds).all():  # as make_spectral_family refuses them
        raise LatticeError("thresholds must be finite")
    return family


@dataclass
class StepReport:
    """Per-stage verdicts for the reconstruction pipeline."""

    monotone_continuous: bool
    family_valid: bool
    extension_rule: bool
    passed: bool = False

    def finish(self) -> "StepReport":
        self.passed = self.monotone_continuous and self.family_valid and self.extension_rule
        return self


def _monotone_continuous(L: FiniteOML, values) -> bool:
    """Monotone continuity: along every descending generator chain the union
    of the filters is the last filter, so f of it is the limit.  For nonzero
    q < p (H_p inside H_q) that is f(q) == min(f(p), f(q)), which with
    Python's min fails exactly when f(q) <= f(p) does not hold (a NaN on
    either side fails).  Compared in row blocks of the kernels' scan budget."""
    v = np.asarray(values, dtype=np.float64)

    def bad(rows):
        out = L.upset_rows(rows) & ~(v[rows, None] <= v[None, :])  # [q, p]
        np.fill_diagonal(out[:, rows], False)
        out[:, L.bottom] = False
        if rows.start <= L.bottom < rows.stop:
            out[L.bottom - rows.start] = False
        return out

    return _kernels._first_pair(L.n, L.n, bad) is None


def verify_reconstruction_steps(L: FiniteOML, f: ObservableTable) -> StepReport:
    """Check the intermediate facts the reconstruction relies on.  That the
    jumps rise, that the image is finite and that no level lies between two
    thresholds need no verdict: ``reconstruct`` returns only a family its
    sublevel pass proved, refuses infinite levels, and takes the levels as
    its thresholds."""
    E = reconstruct(L, f)
    monotone = _monotone_continuous(L, f.values)
    levels = sorted_unique(f.values[L.nonzero()])
    family_valid = observable_fn(E) == f
    # extension rule on probes off the image: E holds its value at the last
    # level below, bottom before the first
    img = set(levels.tolist())
    last = float(levels[-1])
    probes = [(float(levels[0]) - 1.0, L.bottom), (last + 1.0, E.value_at(last))]
    probes += [(float((a + b) / 2), E.value_at(a)) for a, b in itertools.pairwise(levels)]
    extension = all(E.value_at(lam) == held for lam, held in probes if lam not in img)
    return StepReport(monotone, family_valid, extension).finish()


def _atom_sup(L: FiniteOML, atom_values: Mapping[int, float]) -> np.ndarray:
    """p -> the max of the values of the atoms below p, NaN at bottom.  On a
    tie the first of those atoms in atom order gives the value, as with
    Python's max, so a signed zero comes out as a loop gives it; a NaN value
    counts as the smallest (quasipoint files admit none)."""
    atoms = L.atom_index()
    a = np.array([float(atom_values[t]) for t in atoms.tolist()])
    order = np.argsort(-a, kind="stable")
    vals = a[order][np.argmax(L.upset_rows(atoms[order]), axis=0)]  # the first atom <= p
    vals[L.bottom] = np.nan
    return vals


def observable_from_quasipoint_data(
    L: FiniteOML, atom_values: Mapping[int, float]
) -> tuple[SpectralFamily | None, tuple | None]:
    """Try to realize a function on the Stone spectrum by a spectral family.

    Extends the data to a set function by taking sups over the quasipoints
    inside each basis set; if the extension satisfies the max law, the
    family reconstructed from it, whose table restricts back to the data, is
    returned, otherwise (None, witness).
    """
    if sorted(atom_values) != sorted(L.atoms()):
        raise LatticeError("need exactly one value per atom")
    values = _atom_sup(L, atom_values)
    if (family := _sublevel_family(L, values)) is None:  # one pass decides the max law
        return None, _max_law_witness(L, values)
    if not np.isfinite(family.thresholds).all():
        raise LatticeError("thresholds must be finite")
    return family, None


@dataclass
class SublevelReport:
    """Per-level verdict that the strict sublevel sets are lattice ideals."""

    passed: bool
    proper_levels: list[float] = field(default_factory=list)
    improper_levels: list[float] = field(default_factory=list)
    failures: list[tuple[float, str, int, int]] = field(default_factory=list)


def verify_sublevel_ideals(L: FiniteOML, r: ObservableTable) -> SublevelReport:
    """r is completely increasing iff every proper sublevel set (plus bottom)
    is down-closed and join-closed.

    Levels at or above r(top) give the whole lattice and are recorded as the
    improper case; strong closedness is vacuous on a finite lattice.
    """
    nz = [int(p) for p in L.nonzero()]
    rep = SublevelReport(passed=True)
    rtop = float(r.values[L.top])
    for lam in sorted_unique(r.values[nz]):
        lam = float(lam)
        if lam >= rtop:
            rep.improper_levels.append(lam)
            continue
        rep.proper_levels.append(lam)
        members = {L.bottom} | {p for p in nz if float(r.values[p]) <= lam}
        for p in members:
            for q in L.downset(p).tolist():
                if q not in members:
                    rep.failures.append((lam, "down-closed", p, q))
        for p in members:
            joins = L.join_rows(p).tolist()
            for q in members:
                if joins[q] not in members:
                    rep.failures.append((lam, "join-closed", p, q))
    rep.passed = not rep.failures
    return rep


@dataclass
class MirrorVerdict:
    symmetric: bool
    witness_family: SpectralFamily | None = None
    witness_detail: tuple | None = None


def mirror_symmetry_test(L: FiniteOML) -> MirrorVerdict:
    """Search the two-level families for one whose mirrored restriction is
    realized by no family at all.  On a distributive lattice the atoms are
    join-prime, so every quasipoint data is realized and the test passes."""
    for v in L.nonzero():
        v = int(v)
        if v == L.top:
            continue
        E = make_spectral_family(L, [(0.0, v), (1.0, L.top)])
        g = mirrored_fn(E)
        data = {t: float(g.values[t]) for t in L.atoms()}
        family, witness = observable_from_quasipoint_data(L, data)
        if family is None:
            return MirrorVerdict(False, E, witness)
    return MirrorVerdict(True)


def random_increasing_table(
    L: FiniteOML, rng: np.random.Generator
) -> ObservableTable:
    """A random completely increasing function, generated through the chain
    representation (every completely increasing function arises this way)."""
    from .spectral import random_spectral_family

    return observable_fn(random_spectral_family(L, rng))
