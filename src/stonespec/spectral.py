"""Bounded spectral families and their observable functions.

A spectral family is a right-continuous increasing step function from the
reals into a lattice, encoded by its jumps: E(x) is bottom below the first
threshold, the i-th value on [threshold_i, threshold_{i+1}), and top from
the last threshold on.  Thresholds are 64-bit floats that are only ever
copied, never recombined arithmetically, so every comparison between
computed function values and thresholds is exact.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import LatticeError
from .lattice import FiniteOML, principal_ideal
from .stone import DualIdeal, Quasipoint, quasipoints_containing


def sorted_unique(x) -> np.ndarray:
    """np.unique(x) of real or integer x, bit for bit, by its sort path: the
    sorted values, the first of each run of equal ones (so the sort decides
    whether a zero reads -0.0 or 0.0), and one NaN for all of them (NaNs sort
    last).  np.unique itself imports numpy.ma on its first call in a process."""
    a = np.sort(x, axis=None)
    keep = np.empty(a.shape, bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    if a.dtype.kind == "f" and a.size and np.isnan(a[-1]):
        keep[np.searchsorted(a, a[-1]) + 1:] = False
    return a[keep]


@dataclass(frozen=True, eq=False)
class SpectralFamily:
    """Jump representation of a bounded right-continuous spectral family."""

    lattice: FiniteOML
    thresholds: np.ndarray  # float64, strictly increasing
    values: np.ndarray      # int64, strictly increasing elements, last = top

    @property
    def k(self) -> int:
        return len(self.thresholds)

    def jumps(self) -> list[tuple[float, int]]:
        return [(float(l), int(v)) for l, v in zip(self.thresholds, self.values)]

    def value_at(self, lam: float) -> int:
        """E(lam) under step semantics."""
        i = int(np.searchsorted(self.thresholds, lam, side="right")) - 1
        return self.lattice.bottom if i < 0 else int(self.values[i])

    def value_before(self, lam: float) -> int:
        """Left limit of E at lam."""
        i = int(np.searchsorted(self.thresholds, lam, side="left")) - 1
        return self.lattice.bottom if i < 0 else int(self.values[i])

    def __eq__(self, other):
        if not isinstance(other, SpectralFamily):
            return NotImplemented
        return (
            self.lattice is other.lattice
            and self.thresholds.shape == other.thresholds.shape
            and bool((self.thresholds == other.thresholds).all())
            and bool((self.values == other.values).all())
        )

    def __repr__(self):
        names = self.lattice.names
        steps = ", ".join(f"({l:g}, {names[v]})" for l, v in self.jumps())
        return f"SpectralFamily[{steps}]"


@dataclass(frozen=True, eq=False)
class PreSpectralFamily:
    """Monotone step data without the right-continuity guarantee.

    ``closed[i]`` records whether the i-th value is adopted *at* its
    threshold (right-continuous jump) or only after it (left-continuous).
    Values may repeat; the top must be attained.
    """

    lattice: FiniteOML
    thresholds: np.ndarray
    values: np.ndarray
    closed: np.ndarray  # bool per jump


def make_spectral_family(L: FiniteOML, jumps: Iterable[tuple[float, int]]) -> SpectralFamily:
    """Validate and freeze jump data.

    Thresholds must be distinct, values strictly increasing in the lattice
    order, never bottom, and the last value must be top.
    """
    items = sorted(((float(l), L._check(v)) for l, v in jumps), key=operator.itemgetter(0))
    if not items:
        raise LatticeError("a spectral family needs at least one jump")
    # a few Python floats: cheaper to check as they are than as an array
    thr, vals = zip(*items)
    if not all(map(math.isfinite, thr)):
        raise LatticeError("thresholds must be finite")
    if not all(map(operator.lt, thr, thr[1:])):
        raise LatticeError("duplicate thresholds")
    val = np.array(vals, dtype=np.int64)
    prev, cur = val[:-1], val[1:]
    rises = L.le_each(prev, cur) & (prev != cur)
    if not rises.all():
        i = int(np.argmin(rises))
        raise LatticeError(
            f"values must strictly increase: {L.names[vals[i]]!r} then {L.names[vals[i + 1]]!r}"
        )
    if vals[0] == L.bottom:
        raise LatticeError("a bottom value is not a jump")
    if vals[-1] != L.top:
        raise LatticeError("top is not attained")
    return SpectralFamily(L, np.array(thr, dtype=np.float64), val)


def make_pre_spectral_family(
    L: FiniteOML, jumps: Iterable[tuple[float, int, bool]]
) -> PreSpectralFamily:
    items = sorted(((float(l), L._check(v), bool(c)) for l, v, c in jumps))
    if not items:
        raise LatticeError("a pre-spectral family needs at least one jump")
    thr = np.array([l for l, _, _ in items], dtype=np.float64)
    val = np.array([v for _, v, _ in items], dtype=np.int64)
    clo = np.array([c for _, _, c in items], dtype=bool)
    if (thr[1:] <= thr[:-1]).any():  # np.diff would overflow near the float limit
        raise LatticeError("duplicate thresholds")
    if not L.le_each(val[:-1], val[1:]).all():
        raise LatticeError("pre-spectral values must be non-decreasing")
    if val[-1] != L.top:
        raise LatticeError("top is not attained")
    return PreSpectralFamily(L, thr, val, clo)


def spectralize(pre: PreSpectralFamily) -> SpectralFamily:
    """Right-continuous regularization E(lam) = meet of pre-values past lam.

    For finite step data the meet over mu > lam is the value immediately
    after lam, so regularization adopts each value at its own threshold and
    collapses the degenerate jumps; already right-continuous input is a
    fixed point.
    """
    L = pre.lattice
    return make_spectral_family(L, _normalized_jumps(L, pre.thresholds.tolist(), pre.values.tolist()))


def translate(E: SpectralFamily, a: float) -> SpectralFamily:
    """Spectral family of the shifted observable: thresholds moved by +a."""
    return SpectralFamily(E.lattice, E.thresholds + float(a), E.values.copy())


def negate(E: SpectralFamily) -> SpectralFamily:
    """Spectral family of the negated observable.

    Reflect thresholds, complement values (each adopted only after its
    reflected threshold) and spectralize.
    """
    L = E.lattice
    # just above a reflected threshold the reflected family is the complement
    # of the value one step below the threshold; +0.0 normalizes the sign of
    # a reflected zero
    below = [L.complement(L.bottom), *L.complement_each(E.values[:-1]).tolist()]
    lams = (-E.thresholds[::-1] + 0.0).tolist()
    jumps = zip(lams, below[::-1], itertools.repeat(False))
    return spectralize(make_pre_spectral_family(L, jumps))


# ---------------------------------------------------------------------------
# observable tables


@dataclass(frozen=True, eq=False)
class ObservableTable:
    """A real value per nonzero element, keyed by principal filters.

    The table doubles as the function on the whole dual-ideal space (any
    ideal is resolved through its minimum) and, read element-wise, as the
    increasing set function it restricts to.  The bottom slot holds NaN.
    """

    lattice: FiniteOML
    values: np.ndarray  # float64 of length n

    def at_element(self, p: int) -> float:
        p = self.lattice._check(p)
        if p == self.lattice.bottom:
            raise LatticeError("tables are defined on nonzero elements only")
        return float(self.values[p])

    def at_ideal(self, J: DualIdeal) -> float:
        if J.lattice is not self.lattice:
            raise LatticeError("ideal belongs to a different lattice")
        return float(self.values[J.generator])

    def image(self, over: str = "dual_ideals") -> np.ndarray:
        """Sorted distinct values over quasipoints or over all dual ideals."""
        if over == "quasipoints":
            keys = self.lattice.atom_index()
        elif over == "dual_ideals":
            keys = self.lattice.nonzero()
        else:
            raise ValueError("over must be 'quasipoints' or 'dual_ideals'")
        return sorted_unique(self.values[keys])

    def __eq__(self, other):
        if not isinstance(other, ObservableTable):
            return NotImplemented
        if self.lattice is not other.lattice:
            return False
        nz = self.lattice.nonzero()
        return bool((self.values[nz] == other.values[nz]).all())


def table_from_pairs(L: FiniteOML, pairs: Iterable[tuple[int, float]]) -> ObservableTable:
    """Build a table from (element, value) pairs; must cover all of L\\{0}."""
    vals = np.full(L.n, np.nan)
    seen = set()
    for p, f in pairs:
        p = L._check(int(p))
        if p == L.bottom:
            raise LatticeError("bottom carries no table value")
        if p in seen:
            raise LatticeError(f"duplicate table entry for {L.names[p]!r}")
        seen.add(p)
        vals[p] = float(f)
    missing = [int(p) for p in L.nonzero() if int(p) not in seen]
    if missing:
        raise LatticeError(f"table misses elements {missing}")
    return ObservableTable(L, vals)


def observable_fn(E: SpectralFamily) -> ObservableTable:
    """f(H_p) = least threshold whose value dominates p (attained by
    right-continuity)."""
    L = E.lattice
    # the values form a chain that ends at top, so the first i with p <=
    # values[i] is k less the count of such i
    idx = E.k - L.downset_rows(E.values).sum(axis=0)
    vals = E.thresholds[idx].astype(np.float64, copy=False)
    vals[L.bottom] = np.nan
    return ObservableTable(L, vals)


def mirrored_fn(E: SpectralFamily) -> ObservableTable:
    """g(H_p) = greatest lambda whose complemented value still lies in H_p.

    Computed as the first threshold where the complement of the family value
    stops dominating p; identical to negating the family, taking its
    observable table and flipping the sign.  The complements form a
    descending chain, so that index is the count of the i with p <=
    values[i]'; the last complement, top' = bottom, holds only bottom, whose
    slot is NaN, and is left out.
    """
    L = E.lattice
    idx = L.downset_rows(L.complement_each(E.values[:-1])).sum(axis=0)
    vals = E.thresholds[idx].astype(np.float64, copy=False)
    vals[L.bottom] = np.nan
    return ObservableTable(L, vals)


# ---------------------------------------------------------------------------
# restriction (the presheaf structure)


@dataclass(frozen=True, eq=False)
class RestrictedFamily:
    """A spectral family over a principal ideal, with its inclusion map."""

    family: SpectralFamily
    parent: FiniteOML
    top_in_parent: int
    embed: np.ndarray  # sub index -> parent index

    def embedded_jumps(self) -> list[tuple[float, int]]:
        return [
            (float(l), int(self.embed[v]))
            for l, v in zip(self.family.thresholds, self.family.values)
        ]


def restrict(E: SpectralFamily, a: int) -> RestrictedFamily:
    """Meet the family with a, producing a family over the ideal below a."""
    L = E.lattice
    a = L._check(a)
    if a == L.bottom:
        raise LatticeError("cannot restrict to the trivial ideal below bottom")
    sub, embed = principal_ideal(L, a)
    back = {int(p): i for i, p in enumerate(embed)}
    met = L.meet_each(a, E.values).tolist()
    jumps = [(l, back[w]) for l, w in _normalized_jumps(L, E.thresholds.tolist(), met)]
    return RestrictedFamily(make_spectral_family(sub, jumps), L, a, embed)


def _normalized_jumps(
    L: FiniteOML, thresholds: list[float], values: list[int]
) -> tuple[tuple[float, int], ...]:
    """The jumps (thresholds[i], values[i]), with repeated values and bottom
    dropped."""
    out: list[tuple[float, int]] = []
    prev = L.bottom
    for l, w in zip(thresholds, values):
        if w == prev or w == L.bottom:
            continue
        out.append((l, w))
        prev = w
    return tuple(out)


def _as_parent_jumps(f) -> tuple[FiniteOML, np.ndarray, np.ndarray, int]:
    """(parent lattice, thresholds, values in the parent, top in the parent)."""
    if isinstance(f, RestrictedFamily):
        return f.parent, f.family.thresholds, f.embed[f.family.values], f.top_in_parent
    if isinstance(f, SpectralFamily):
        return f.lattice, f.thresholds, f.values, f.lattice.top
    raise TypeError(f"expected a family, got {type(f).__name__}")


def equivalent_at(E, F, point: Quasipoint) -> bool:
    """Whether two (possibly restricted) families share a germ at a
    quasipoint: some R in the filter, below both tops, restricts them to the
    same family."""
    LE, ethr, evals, P = _as_parent_jumps(E)
    LF, fthr, fvals, Q = _as_parent_jumps(F)
    if LE is not LF or point.lattice is not LE:
        raise LatticeError("families and quasipoint must share one parent lattice")
    L = LE
    t = point.generator
    cap = L.meet(P, Q)
    if not L.le(t, cap):
        raise LatticeError(
            "the quasipoint must contain the meet of both restriction tops"
        )
    # the families met with every r in [t, cap], one row of meets per r
    rs = np.flatnonzero(L.upset_rows(t) & L.downset_rows(cap))[:, None]
    ethr, fthr = ethr.tolist(), fthr.tolist()
    return any(
        _normalized_jumps(L, ethr, e) == _normalized_jumps(L, fthr, f)
        for e, f in zip(L.meet_each(rs, evals).tolist(), L.meet_each(rs, fvals).tolist())
    )


def value_at_quasipoint(f, point: Quasipoint) -> float:
    """Observable value of a (possibly restricted) family at a quasipoint of
    the parent lattice that contains the family's top."""
    L, thresholds, values, P = _as_parent_jumps(f)
    t = point.generator
    if not L.le(t, P):
        raise LatticeError("quasipoint does not contain the restriction top")
    # the last value is P, and t <= P: some value contains the quasipoint
    return float(thresholds[np.argmax(L.le_each(t, values))])


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class IntersectionReport:
    passed: bool
    checked: int
    failures: list[tuple[tuple[int, ...], float, float]] = field(default_factory=list)


def verify_intersection_law(
    E: SpectralFamily,
    max_exhaustive: int = 16,
    samples: int = 512,
    rng: np.random.Generator | None = None,
) -> IntersectionReport:
    """f of an intersection of ideals equals the max of the f values.

    Intersections of principal filters are principal on the join of the
    generators; exhaustive over all generator subsets when the ideal space
    is small, seeded random subsets otherwise.
    """
    L = E.lattice
    f = observable_fn(E)
    gens = [int(p) for p in L.nonzero()]
    rep = IntersectionReport(passed=True, checked=0)

    def check(subset: tuple[int, ...]):
        joined = L.big_join(subset)
        got = float(f.values[joined])
        want = max(float(f.values[p]) for p in subset)
        rep.checked += 1
        if got != want:
            rep.failures.append((subset, got, want))

    if len(gens) <= max_exhaustive:
        for r in range(1, len(gens) + 1):
            for subset in itertools.combinations(gens, r):
                check(subset)
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        for _ in range(samples):
            r = int(rng.integers(1, min(len(gens), 8) + 1))
            subset = tuple(int(x) for x in rng.choice(gens, size=r, replace=False))
            check(subset)
    rep.passed = not rep.failures
    return rep


@dataclass
class UscReport:
    passed: bool
    checked: int
    failures: list[tuple[int, float]] = field(default_factory=list)


def verify_upper_semicontinuity(E: SpectralFamily) -> UscReport:
    """For every ideal J0 and epsilon in (1, 1/2, 1/4), the family value at
    f(J0) + eps/2 witnesses a basis neighbourhood on which f stays below
    f(J0) + eps."""
    L = E.lattice
    f = observable_fn(E)
    rep = UscReport(passed=True, checked=0)
    for g in L.nonzero().tolist():
        f0 = float(f.values[g])
        for eps in (1.0, 0.5, 0.25):
            witness = E.value_at(f0 + eps / 2)
            rep.checked += 1
            if not L.le(g, witness):  # witness must lie in J0
                rep.failures.append((g, eps))
                continue
            # f is NaN at bottom, so the down-set's bottom never fails
            if (f.values[L.downset(witness)] >= f0 + eps).any():
                rep.failures.append((g, eps))
    rep.passed = not rep.failures
    return rep


def minimal_ideal(E: SpectralFamily, lam: float) -> DualIdeal:
    """The smallest dual ideal on which the observable function attains lam.

    The values form a chain, so f(H_p) is the i-th threshold exactly when
    p <= values[i] but not p <= values[i - 1]: f takes the thresholds and
    nothing else, and the level set of the i-th has the join values[i].
    So at a threshold lam the ideal is H_{E(lam)}, the intersection of the
    level set's filters; the tests check these descriptions agree.
    """
    lam_f = float(lam)
    i = int(np.searchsorted(E.thresholds, lam_f))
    if i == E.k or E.thresholds[i] != lam_f:
        raise LatticeError(f"{lam!r} is not attained by the observable function")
    return DualIdeal(E.lattice, int(E.values[i]))


@dataclass
class GermReport:
    passed: bool
    equivalent_pairs: int
    compared: int
    failures: list[tuple[int, float, float]] = field(default_factory=list)


def verify_germ_equivalence(
    L: FiniteOML,
    pairs: Iterable[tuple[object, object]],
) -> GermReport:
    """Equivalent germs take equal observable values at every admissible
    quasipoint."""
    rep = GermReport(passed=True, equivalent_pairs=0, compared=0)
    for E, F in pairs:
        cap = L.meet(_as_parent_jumps(E)[3], _as_parent_jumps(F)[3])
        if cap == L.bottom:
            continue
        for point in quasipoints_containing(L, cap):
            rep.compared += 1
            if equivalent_at(E, F, point):
                rep.equivalent_pairs += 1
                ve = value_at_quasipoint(E, point)
                vf = value_at_quasipoint(F, point)
                if ve != vf:
                    rep.failures.append((point.generator, ve, vf))
    rep.passed = not rep.failures
    return rep


# ---------------------------------------------------------------------------
# random generation (used by the verification suites)


def random_spectral_family(L: FiniteOML, rng: np.random.Generator) -> SpectralFamily:
    """Random ascending chain of at most six elements reaching top, with sorted
    random thresholds."""
    chain = [L.top]
    cur = L.top
    while len(chain) < 6:
        below = [b for b in L.downset(cur).tolist() if b != cur and b != L.bottom]
        if not below or rng.random() < 0.35:
            break
        cur = int(rng.choice(below))
        chain.append(cur)
    chain.reverse()
    thr = np.sort(rng.normal(0.0, 3.0, size=len(chain)))
    while len(sorted_unique(thr)) != len(thr):  # pragma: no cover - measure zero
        thr = np.sort(rng.normal(0.0, 3.0, size=len(chain)))
    return make_spectral_family(L, zip(thr.tolist(), chain))
