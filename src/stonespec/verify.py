"""Verification corpus: every structural fact the library is built on,
bundled into named pass/fail checks.

The suites back the ``verify`` CLI command; the acceptance criteria reuse
the same machinery at their contract sizes and tolerances.  All randomness
is drawn from seeded generators so reports are byte-for-byte reproducible.

Each suite is an ordered table of (name, test) pairs run by one runner: a
test returns a :class:`Check`, a bool or (passed, detail), and a test that
raises is reported as ``ERROR <name> [<Type>: <message>]``, counts as not
passed, and the run goes on to the next test.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import gelfand, matrix, recon, spectral, stone
from .corpus import corpus
from .errors import LatticeError
from .lattice import generated_sublattice, verify_structure
from .spectral import (
    make_spectral_family,
    mirrored_fn,
    negate,
    observable_fn,
    random_spectral_family,
    restrict,
    translate,
    value_at_quasipoint,
)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" [{self.detail}]" if self.detail else ""
        return f"{status} {self.name}{tail}"


class _Error(Check):
    """A check whose test raised: not passed, the exception as its detail."""

    def line(self) -> str:
        return f"ERROR {self.name} [{self.detail}]"


def _run(tests) -> list[Check]:
    """Run each (name, test) in order.  test() returns a Check, kept as it is,
    or a bool or (passed, detail) for the check of that name.  An exception
    becomes that check's ERROR and the run goes on; running out of memory
    still ends it (the CLI exits 2 on it)."""
    out: list[Check] = []
    for name, test in tests:
        try:
            got = test()
        except MemoryError:
            raise
        except Exception as exc:
            got = _Error(name, False, f"{type(exc).__name__}: {exc}")
        if not isinstance(got, Check):
            passed, detail = got if isinstance(got, tuple) else (got, "")
            got = Check(name, bool(passed), detail)
        out.append(got)
    return out


def _each(prefix: str, test, lattices) -> list[tuple]:
    """The table entries (prefix/name, test(L)) for each (name, L) pair."""
    return [(f"{prefix}/{name}", partial(test, L)) for name, L in lattices]


def _once(fn):
    """fn's outcome, its value or its exception, from the first call on every
    call: two checks that share one loop, and its draws, read it this way."""
    memo: list = []

    def outcome():
        if not memo:
            try:
                memo.append((fn(), None))
            except Exception as exc:
                memo.append((None, exc))
        value, exc = memo[0]
        if exc is not None:
            raise exc
        return value

    return outcome


def _raises(fn, *args) -> bool:
    """Whether fn(*args) raises a LatticeError."""
    try:
        fn(*args)
    except LatticeError:
        return True
    return False


def _verdict(name: str, problems: list[str], summary: str) -> Check:
    """A criterion's check: its problems, or its summary when there are none."""
    return Check(name, not problems, "; ".join(problems) or summary)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng((seed, salt))


# expected structural verdicts per corpus lattice:
# (ortho_complemented, orthomodular, distributive)
_EXPECTED = {
    "chain-2": (True, True, True),
    "B2": (True, True, True),
    "2^3": (True, True, True),
    "2^4": (True, True, True),
    "MO2": (True, True, False),
    "MO3": (True, True, False),
    "benzene-O6": (True, False, False),
}


# ---------------------------------------------------------------------------
# lattice suite


def suite_lattice(seed: int = 7) -> list[Check]:
    lattices = corpus()
    rng = _rng(seed, 1)
    report = cache(verify_structure)  # one report per corpus lattice, read by several checks

    def verdicts(L, expected):
        rep = report(L)
        oc, om, di = expected
        ok = (
            rep.is_lattice
            and rep.is_ortho_complemented == oc
            and rep.is_orthomodular == om
            and rep.is_distributive == di
            and rep.is_boolean == (oc and di)
            and rep.is_atomistic == om  # benzene is the only non-atomistic one
        )
        return ok, str(rep.to_dict()["witnesses"])

    def orthomodular_witness(L):
        a, b = report(L).witnesses["is_orthomodular"]
        lhs = L.join(a, L.meet(b, L.complement(a)))
        return (
            L.le(a, b) and lhs != b,
            f"{L.names[a]} <= {L.names[b]} but relative join gives {L.names[lhs]}",
        )

    def distributive_witness(L):
        a, b, c = report(L).witnesses["is_distributive"]
        return L.meet(a, L.join(b, c)) != L.join(L.meet(a, b), L.meet(a, c))

    def bound_universality(L):
        for a in range(L.n):
            for b in range(L.n):
                m, j = L.meet(a, b), L.join(a, b)
                if not (L.le(m, a) and L.le(m, b) and L.le(a, j) and L.le(b, j)):
                    return False
                for c in range(L.n):
                    if L.le(c, a) and L.le(c, b) and not L.le(c, m):
                        return False
                    if L.le(a, c) and L.le(b, c) and not L.le(j, c):
                        return False
        return True

    def de_morgan(L):
        return all(
            L.complement(L.join(a, b)) == L.meet(L.complement(a), L.complement(b))
            for a in range(L.n)
            for b in range(L.n)
        )

    def relabeling_invariance(L):
        L2 = L.relabeled(rng.permutation(L.n))
        # the verdicts, not the witnesses: those name relabeled elements
        r1, r2 = report(L).to_dict(), verify_structure(L2).to_dict()
        return r1 | {"witnesses": None} == r2 | {"witnesses": None}

    def atomicity(L):  # every nonzero element dominates an atom
        return all(any(L.le(t, int(p)) for t in L.atoms()) for p in L.nonzero())

    def generated(L, *gens):  # the size of the sublattice that gens generate
        return generated_sublattice(L, list(gens))[0].n

    tests = []
    for name, L in lattices.items():
        _, om, di = _EXPECTED[name]
        tests.append((f"lattice/verdicts/{name}", partial(verdicts, L, _EXPECTED[name])))
        if not om:
            tests.append(
                (f"lattice/orthomodular-witness/{name}", partial(orthomodular_witness, L)))
        if not di:
            tests.append(
                (f"lattice/distributive-witness/{name}", partial(distributive_witness, L)))
    B2, MO2, C3 = lattices["B2"], lattices["MO2"], lattices["2^3"]
    a, b, bp = MO2.index("a"), MO2.index("b"), MO2.index("b'")
    return _run([
        *tests,
        # universal property of the precomputed bounds, exhaustively
        *_each("lattice/bound-universality", bound_universality,
               ((name, lattices[name]) for name in ("B2", "MO2", "MO3", "benzene-O6", "2^3"))),
        # De Morgan on the ortho-complemented corpus
        *_each("lattice/de-morgan", de_morgan, lattices.items()),
        *_each("lattice/relabeling-invariance", relabeling_invariance, lattices.items()),
        *_each("lattice/atomicity", atomicity, lattices.items()),
        # empty bounds and a derived multi-element example
        ("lattice/empty-bounds",
         lambda: MO2.big_meet([]) == MO2.top and MO2.big_join([]) == MO2.bottom),
        ("lattice/mo2-bounds", lambda: MO2.meet(a, b) == MO2.bottom
         and MO2.join(a, b) == MO2.top and MO2.big_meet([a, b, bp]) == MO2.bottom),
        # generated sublattices
        ("lattice/generated/B2-from-p", lambda: generated(B2, B2.index("p")) == 4),
        ("lattice/generated/MO2-from-ab", lambda: generated(MO2, a, b) == 6),
        ("lattice/generated/2^3-from-atoms", lambda: generated(C3, 1, 2, 4) == 8),
    ])


# ---------------------------------------------------------------------------
# stone suite


def criterion_stone_structure(seed: int = 7) -> Check:
    problems: list[str] = []
    for name, L in corpus().items():
        if not stone.verify_basis_identities(L).passed:
            problems.append(f"basis identities fail on {name}")
        if verify_structure(L).is_orthomodular:
            if not stone.verify_principal_intersection(L).passed:
                problems.append(f"principal intersection fails on {name}")
        if not stone.stone_density(L):
            problems.append(f"density fails on {name}")
        # closure witness H_{P1} in cl(D_P) \ D_P for any chain 0 < P < P1;
        # only the two-element lattice has no such chain
        nz = [int(p) for p in L.nonzero()]
        chain = next(((p, p1) for p in nz for p1 in nz if p != p1 and L.le(p, p1)), None)
        if chain is None and len(nz) > 1:
            problems.append(f"no chain found on {name}")
        if chain:
            p, p1 = chain
            closure = stone.basis_closure(L, p)
            gens = {i.generator for i in closure}
            slow = {i.generator for i in stone.ideal_closure(L, stone.ideals_containing(L, p))}
            if gens != slow:
                problems.append(f"closure fast path disagrees on {name}")
            in_closure = p1 in gens
            in_basis = L.le(p1, p)  # H_{p1} lies in D_p iff p1 <= p
            if not (in_closure and not in_basis):
                problems.append(f"closure witness fails on {name}")
        if L.n <= stone.BRUTE_FORCE_LIMIT:
            ideals = {i.member_set() for i in stone.enumerate_dual_ideals(L)}
            if set(stone.brute_force_dual_ideals(L)) != ideals:
                problems.append(f"principal enumeration disagrees with subset scan on {name}")
            points = {q.member_set() for q in stone.quasipoints(L)}
            if set(stone.brute_force_quasipoints(L)) != points:
                problems.append(f"atom filters disagree with the maximality scan on {name}")
    return _verdict("stone-structure", problems, "basis laws, filter intersection, density, "
                    "closure witness, enumeration oracles")


def suite_stone(seed: int = 7) -> list[Check]:
    lattices = corpus()
    B2, MO2 = lattices["B2"], lattices["MO2"]
    p, q = B2.index("p"), B2.index("q")

    def filter_order_reversal(L):
        nz = [int(x) for x in L.nonzero()]
        for a in nz:
            for b in nz:
                ha = stone.principal_filter(L, a).member_set()
                hb = stone.principal_filter(L, b).member_set()
                if (ha <= hb) != L.le(b, a):
                    return False
                if ha & hb != stone.principal_filter(L, L.join(a, b)).member_set():
                    return False
        return True

    def complement_cover(L):
        covers = all(stone.complement_covers(L, a) for a in range(L.n))
        return covers == verify_structure(L).is_distributive

    def closure_witness():  # non-Hausdorff, in 2^3 with coordinate projections
        e1, e12 = 1, 3
        closure_gens = {i.generator for i in stone.basis_closure(lattices["2^3"], e1)}
        return e12 in closure_gens and not lattices["2^3"].le(e12, e1)

    return _run([
        ("stone-structure", lambda: criterion_stone_structure(seed)),
        # counted enumerations
        ("stone/counts", lambda: len(stone.enumerate_dual_ideals(B2)) == 3
         and len(stone.quasipoints(B2)) == 2
         and len(stone.enumerate_dual_ideals(MO2)) == 5
         and len(stone.quasipoints(MO2)) == 4
         and len(stone.enumerate_dual_ideals(lattices["chain-2"])) == 1
         and len(stone.quasipoints(lattices["2^3"])) == 3),
        # principal filters
        ("stone/principal-filter/B2",
         lambda: stone.principal_filter(B2, p).member_set() == {p, B2.top}),
        ("stone/principal-filter/rejects-bottom",
         lambda: _raises(stone.principal_filter, B2, B2.bottom)),
        # filter clauses on explicit subsets
        ("stone/is-dual-ideal", lambda: stone.is_dual_ideal(B2, {B2.top})
         and not stone.is_dual_ideal(B2, {p, q, B2.top})
         and not stone.is_dual_ideal(B2, set())),
        # the map a -> H_a reverses order and turns joins into intersections
        *_each("stone/filter-order-reversal", filter_order_reversal,
               ((name, lattices[name]) for name in ("B2", "MO2", "2^3", "benzene-O6"))),
        # the complement-cover criterion detects distributivity on the
        # orthomodular corpus
        *_each("stone/complement-cover", complement_cover,
               ((name, L) for name, L in lattices.items() if _EXPECTED[name][1])),
        ("stone/closure-witness/2^3", closure_witness),
    ])


# ---------------------------------------------------------------------------
# spectral suite


def criterion_translation_and_step_approx(seed: int = 7) -> Check:
    problems: list[str] = []
    lattices = corpus()
    rng = _rng(seed, 5)
    pool = list(lattices.values())
    for i in range(100):
        L = pool[i % len(pool)]
        E = random_spectral_family(L, rng)
        a = float(rng.normal(0, 5))
        shifted = observable_fn(translate(E, a))
        direct = observable_fn(E)
        nz = L.nonzero()
        if not (shifted.values[nz] == a + direct.values[nz]).all():
            problems.append(f"translation not exact on {L!r}")
            break
    # matrix layer: spectra and ray values shift within tolerance
    for i in range(100):
        n = int(rng.integers(2, 9))
        A = matrix.random_hermitian(n, rng)
        a = float(rng.normal(0, 5))
        sp1 = matrix.spectrum(A + a * np.eye(n))
        sp2 = matrix.spectrum(A) + a
        tol = matrix.MAT_TOL * np.abs(sp1).max()  # ||A + aI||
        if len(sp1) != len(sp2) or np.abs(sp1 - sp2).max() > tol:
            problems.append("matrix spectrum does not translate")
            break
        x = matrix.random_ray(n, rng)
        if abs(matrix.ray_obs(A + a * np.eye(n), x) - (a + matrix.ray_obs(A, x))) > tol:
            problems.append("ray value does not translate")
            break
    for eps in (1.0, 0.1, 0.01):
        for i in range(5):
            n = int(rng.integers(2, 7))
            A = matrix.random_hermitian(n, rng)
            _, rep = matrix.step_approx(A, eps)
            if not rep.passed:
                problems.append(
                    f"step approx fails at eps={eps}: f={rep.f_distance}, "
                    f"op={rep.op_distance}, closed={rep.closed_form_ok}"
                )
    return _verdict("translation-and-step-approximation", problems,
                    "exact lattice shift, 1e-9 matrix shift, eps in {1, 0.1, 0.01}")


def suite_spectral(seed: int = 7) -> list[Check]:
    rng = _rng(seed, 2)
    lattices = corpus()
    # the two-jump family of a projection on B2 (complement at 0, top at 1)
    B2 = lattices["B2"]
    p, q = B2.index("p"), B2.index("q")
    E5 = make_spectral_family(B2, [(0.0, p), (1.0, B2.top)])
    C3 = lattices["2^3"]
    E3 = make_spectral_family(C3, [(0.0, 1), (1.0, 3), (2.0, 7)])

    def families(per_lattice):  # random families, drawn in corpus order
        for L in lattices.values():
            for _ in range(per_lattice):
                yield L, random_spectral_family(L, rng)

    def projection_pattern():
        f5 = observable_fn(E5)
        return (
            float(f5.values[p]) == 0.0
            and float(f5.values[q]) == 1.0
            and float(f5.values[B2.top]) == 1.0
            and f5.image("quasipoints").tolist() == [0.0, 1.0]
            and f5.image("dual_ideals").tolist() == [0.0, 1.0]
        )

    def spectralization():  # left-continuous input
        pre = spectral.make_pre_spectral_family(B2, [(0.0, p, False), (1.0, B2.top, False)])
        return spectral.spectralize(pre) == E5

    def spectralization_idempotent():
        return all(
            spectral.spectralize(
                spectral.make_pre_spectral_family(L, [(l, v, True) for l, v in E.jumps()])
            ) == E
            for L, E in families(5)
        )

    def negation_closed_form():  # involution and closed form
        for L, E in families(5):
            N = negate(E)
            if negate(N) != E:
                return False
            grid = np.concatenate([E.thresholds, E.thresholds - 0.5, E.thresholds + 0.25])
            for lam in grid:
                if N.value_at(float(lam)) != L.complement(E.value_before(-float(lam))):
                    return False
        return True

    def mirror_vs_negation():  # identity with the negated family, and order
        for L, E in families(6):
            g = mirrored_fn(E)
            h = observable_fn(negate(E))
            nz = L.nonzero()
            if not (g.values[nz] == -h.values[nz]).all():
                return False
            f = observable_fn(E)
            if any(float(g.values[t]) > float(f.values[t]) for t in L.atoms()):
                return False
        return True

    def mirror_asymmetry():
        MO2 = lattices["MO2"]
        E_mo = make_spectral_family(MO2, [(0.0, MO2.index("a")), (1.0, MO2.top)])
        fb = float(observable_fn(E_mo).values[MO2.index("b")])
        gb = float(mirrored_fn(E_mo).values[MO2.index("b")])
        return (fb == 1.0 and gb == 0.0,
                "observable and mirrored tables split on a non-distributive lattice")

    def restriction_constant():
        family = restrict(E5, p).family
        return family.jumps() == [(0.0, family.lattice.top)]

    def restriction_meets():
        r3 = restrict(E3, 3)
        return [(l, int(r3.embed[v])) for l, v in r3.family.jumps()] == [(0.0, 1), (1.0, 3)]

    @_once
    def restriction_laws():  # (presheaf law, quasipoint compatibility), one draw sequence
        presheaf_ok = True
        compat_ok = True
        for name in ("2^3", "2^4", "MO2"):
            L = lattices[name]
            for _ in range(8):
                E = random_spectral_family(L, rng)
                bs = [int(b) for b in L.nonzero() if b != L.bottom]
                b = int(rng.choice(bs))
                others = [a for a in L.downset(b).tolist() if a != L.bottom]
                a = int(rng.choice(others))
                one = restrict(E, a)
                mid = restrict(E, b)
                a_in_mid = int(np.flatnonzero(mid.embed == a)[0])
                two = restrict(mid.family, a_in_mid)
                jumps_two = [(l, int(mid.embed[two.embed[v]])) for l, v in two.family.jumps()]
                presheaf_ok &= one.embedded_jumps() == jumps_two
                presheaf_ok &= restrict(E, L.top).embedded_jumps() == E.jumps()
                f = observable_fn(E)
                for t in L.atoms():
                    if L.le(t, a):
                        point = stone.Quasipoint(L, t)
                        compat_ok &= value_at_quasipoint(one, point) == float(f.values[t])
        return presheaf_ok, compat_ok

    def minimal_ideal_infimum():
        for L, E in families(6):
            for lam, v in E.jumps():
                if L.big_meet(spectral.minimal_ideal(E, lam).members().tolist()) != v:
                    return False
        return True

    def min_formula_and_monotonicity():  # and antitone behaviour of the table on ideals
        for L, E in families(1):
            f = observable_fn(E)
            nz = [int(x) for x in L.nonzero()]
            for g in nz:
                if float(f.values[g]) != float(np.min(f.values[L.upset(g)])):
                    return False
            for a in nz:
                for b in nz:
                    if L.le(a, b) and float(f.values[a]) > float(f.values[b]):
                        return False
            # the filter value is the sup over the quasipoints containing it
            if verify_structure(L).is_orthomodular and any(
                max(float(f.values[t]) for t in L.atoms() if L.le(t, g)) != float(f.values[g])
                for g in nz
            ):
                return False
        return True

    def table_determines_family():  # identical tables only for identical families
        for L, E in families(8):
            F = random_spectral_family(L, rng)
            if (observable_fn(E) == observable_fn(F)) != (E == F):
                return False
        return True

    def germ_equivalence():  # germ equivalence forces equal values
        pairs = []
        for _ in range(20):
            P = int(rng.integers(1, C3.n))
            Q = int(rng.integers(1, C3.n))
            E = random_spectral_family(C3, rng)
            F = random_spectral_family(C3, rng)
            pairs.append((restrict(E, P), restrict(F, Q)))
            # restrictions of one family are equivalent wherever both are defined
            pairs.append((restrict(E, P), restrict(E, Q)))
        rep = spectral.verify_germ_equivalence(C3, pairs)
        return (rep.passed,
                f"{rep.equivalent_pairs} equivalent germs among {rep.compared} comparisons")

    def germ_examples():  # same e1 component vs. different everywhere
        F = make_spectral_family(C3, [(0.0, 1), (1.5, 5), (2.5, 7)])
        point = stone.Quasipoint(C3, 1)
        same = spectral.equivalent_at(restrict(E3, 3), restrict(F, 5), point)
        G = make_spectral_family(C3, [(0.25, 2), (0.75, 3), (2.0, 7)])
        return same and not spectral.equivalent_at(E3, G, point)

    return _run([
        ("spectral/projection-pattern", projection_pattern),
        ("spectral/step-evaluation", lambda: E5.value_at(0.5) == p
         and E5.value_at(-1.0) == B2.bottom and E5.value_at(1.0) == B2.top),
        # validation errors
        ("spectral/rejects-flat-values",
         lambda: _raises(make_spectral_family, B2, [(0.0, p), (1.0, p)])),
        ("spectral/spectralization", spectralization),
        ("spectral/spectralization-idempotent", spectralization_idempotent),
        ("spectral/negation-closed-form", negation_closed_form),
        ("spectral/negation-of-projection",
         lambda: (negate(E5).jumps() == [(-1.0, q), (0.0, B2.top)],
                  "complemented value reflects to the negative axis")),
        ("spectral/mirror-vs-negation", mirror_vs_negation),
        ("spectral/mirror-asymmetry/MO2", mirror_asymmetry),
        # restriction: constants, presheaf law, quasipoint compatibility
        ("spectral/restriction-constant", restriction_constant),
        ("spectral/restriction-meets", restriction_meets),
        ("spectral/presheaf-law", lambda: restriction_laws()[0]),
        ("spectral/restriction-compatibility", lambda: restriction_laws()[1]),
        # intersection law, upper semicontinuity, minimal ideals
        ("spectral/intersection-law", lambda: spectral.verify_intersection_law(E5).passed
         and spectral.verify_intersection_law(E3).passed),
        ("spectral/upper-semicontinuity", lambda: all(
            spectral.verify_upper_semicontinuity(random_spectral_family(L, rng)).passed
            for L in lattices.values())),
        ("spectral/minimal-ideals", lambda: spectral.minimal_ideal(E5, 0.0).generator == p
         and spectral.minimal_ideal(E5, 1.0).generator == B2.top),
        ("spectral/minimal-ideal-infimum", minimal_ideal_infimum),
        ("spectral/min-formula-and-monotonicity", min_formula_and_monotonicity),
        ("spectral/table-determines-family", table_determines_family),
        ("spectral/germ-equivalence", germ_equivalence),
        ("spectral/germ-examples", germ_examples),
    ])


# ---------------------------------------------------------------------------
# reconstruction suite


def criterion_reconstruction_round_trip(seed: int = 7, per_lattice: int = 100) -> Check:
    problems: list[str] = []
    rng = _rng(seed, 3)
    for name, L in corpus().items():
        for _ in range(per_lattice):
            E = random_spectral_family(L, rng)
            f = observable_fn(E)
            back = recon.reconstruct(L, f)
            if back != E:
                problems.append(f"family round trip breaks on {name}")
                break
            if observable_fn(back) != f:
                problems.append(f"table round trip breaks on {name}")
                break
            for lam, v in E.jumps():
                ideal = spectral.minimal_ideal(E, lam)
                if L.big_meet(ideal.members().tolist()) != v:
                    problems.append(f"minimal ideal infimum breaks on {name}")
                    break
    return _verdict("reconstruction-round-trip", problems,
                    f"{per_lattice} families per corpus lattice, bit-exact thresholds")


def criterion_increasing_bijection(seed: int = 7, instances: int = 1000) -> Check:
    problems: list[str] = []
    rng = _rng(seed, 4)
    lattices = list(corpus().items())
    for i in range(instances):
        name, L = lattices[i % len(lattices)]
        r = recon.random_increasing_table(L, rng)
        f = recon.f_from_r(L, r)
        if recon.r_from_f(f) != r or recon.f_from_r(L, recon.r_from_f(f)) != f:
            problems.append(f"bijection breaks on {name}")
            break
    # pairwise max law vs. the full family law, by brute force
    for name, L in corpus().items():
        if L.n > 12:
            continue
        tables = [recon.random_increasing_table(L, rng) for _ in range(10)]
        for _ in range(20):
            vals = np.full(L.n, np.nan)
            nz = L.nonzero()
            vals[nz] = np.round(rng.normal(0, 1, size=len(nz)), 1)
            tables.append(spectral.ObservableTable(L, vals))
        for t in tables:
            pairwise = recon.is_completely_increasing(L, t)[0]
            full = recon.family_law_holds(L, t)
            if pairwise != full:
                problems.append(f"pairwise/family law split on {name}")
                break
    return _verdict("increasing-function-bijection", problems, f"{instances} mutual inverses; "
                    "pairwise = family law on all corpus lattices <= 12 elements")


def criterion_distributivity_dichotomy(seed: int = 7) -> Check:
    problems: list[str] = []
    lattices = corpus()
    for name in ("chain-2", "B2", "2^3", "2^4"):
        L = lattices[name]
        atoms = list(L.atoms())
        realized = 0
        for combo in itertools.product((0.0, 0.5, 1.0), repeat=len(atoms)):
            data = dict(zip(atoms, combo))
            family, witness = recon.observable_from_quasipoint_data(L, data)
            if family is None:
                problems.append(f"unrealized quasipoint data on {name}: {witness}")
                break
            f = observable_fn(family)
            g = mirrored_fn(family)
            for t in atoms:
                if float(f.values[t]) != data[t]:
                    problems.append(f"restriction mismatch on {name}")
                if float(g.values[t]) != float(f.values[t]):
                    problems.append(f"mirrored table splits on distributive {name}")
            realized += 1
        if realized != 3 ** len(atoms):
            problems.append(f"only {realized} functions realized on {name}")
        verdict = recon.mirror_symmetry_test(L)
        if not verdict.symmetric:
            problems.append(f"mirror symmetry fails on {name}")
    for name in ("MO2", "MO3"):
        L = lattices[name]
        atoms = list(L.atoms())
        a = L.index("a")
        data = {t: 1.0 if t == a else 0.0 for t in atoms}
        family, witness = recon.observable_from_quasipoint_data(L, data)
        if family is not None or witness is None:
            problems.append(f"characteristic data unexpectedly realized on {name}")
        # any complementary pair outside a is a valid witness, b and b' among them
        if witness is not None and L.join(*witness) != L.top:
            problems.append(f"witness on {name} is not a complementary pair")
        E = make_spectral_family(L, [(0.0, a), (1.0, L.top)])
        f, g = observable_fn(E), mirrored_fn(E)
        if not any(float(f.values[t]) != float(g.values[t]) for t in atoms):
            problems.append(f"no mirrored split found on {name}")
        verdict = recon.mirror_symmetry_test(L)
        if verdict.symmetric:
            problems.append(f"mirror asymmetry not detected on {name}")
    return _verdict("distributivity-dichotomy", problems, "all {0, 1/2, 1}-valued quasipoint "
                    "data realized on Boolean corpus; characteristic data rejected on MO2/MO3")


def suite_recon(seed: int = 7) -> list[Check]:
    lattices = corpus()
    rng = _rng(seed, 6)
    B2, MO2 = lattices["B2"], lattices["MO2"]
    p, q = B2.index("p"), B2.index("q")
    vals = np.full(B2.n, np.nan)
    vals[[p, q, B2.top]] = 0.0, 1.0, 1.0
    r = spectral.ObservableTable(B2, vals)
    # the characteristic function at one MO2 atom is not completely increasing
    vals = np.full(MO2.n, np.nan)
    vals[MO2.nonzero()] = 0.0
    vals[[MO2.index("a"), MO2.top]] = 1.0
    bad = spectral.ObservableTable(MO2, vals)

    def projection_example():
        ok, _ = recon.is_completely_increasing(B2, r)
        E = recon.reconstruct(B2, recon.f_from_r(B2, r))
        return ok and E.jumps() == [(0.0, p), (1.0, B2.top)]

    def characteristic_witness():
        ok, witness = recon.is_completely_increasing(MO2, bad)
        return (not ok and witness is not None and MO2.join(*witness) == MO2.top,
                f"witness pair {witness}")

    def sublevel_ideals():  # ideals exactly when the function is completely increasing
        rep = recon.verify_sublevel_ideals(B2, r)
        rep_bad = recon.verify_sublevel_ideals(MO2, bad)
        return (rep.passed and not rep_bad.passed,
                f"proper levels {rep.proper_levels} vs failing {rep_bad.failures[:1]}")

    def sublevel_ideals_random():
        return all(
            recon.verify_sublevel_ideals(L, recon.random_increasing_table(L, rng)).passed
            for L in lattices.values()
            for _ in range(5)
        )

    def pipeline_steps():
        # stepwise verification of the rebuild pipeline; the corpus numbers its
        # elements along the order, so each lattice is also checked with its
        # indices reversed, where a level set's join is its first index
        for L in lattices.values():
            flipped = L.relabeled(np.arange(L.n)[::-1])
            for M in (L, flipped):
                for _ in range(5):
                    f = recon.random_increasing_table(M, rng)
                    if not recon.verify_reconstruction_steps(M, f).passed:
                        return False
        return True

    def constant_data():  # constant data reconstructs to the one-jump family
        for L in lattices.values():
            family, _ = recon.observable_from_quasipoint_data(L, {t: 2.5 for t in L.atoms()})
            if family is None or family.jumps() != [(2.5, L.top)]:
                return False
        return True

    return _run([
        ("reconstruction-round-trip",
         lambda: criterion_reconstruction_round_trip(seed, per_lattice=40)),
        ("increasing-function-bijection",
         lambda: criterion_increasing_bijection(seed, instances=300)),
        ("distributivity-dichotomy", lambda: criterion_distributivity_dichotomy(seed)),
        ("recon/projection-example", projection_example),
        ("recon/characteristic-witness", characteristic_witness),
        ("recon/sublevel-ideals", sublevel_ideals),
        ("recon/sublevel-ideals-random", sublevel_ideals_random),
        ("recon/pipeline-steps", pipeline_steps),
        ("recon/constant-data", constant_data),
    ])


# ---------------------------------------------------------------------------
# matrix suite


def criterion_spectrum_identity(seed: int = 7, count: int = 200) -> Check:
    rng = _rng(seed, 7)
    problems: list[str] = []
    for i in range(count):
        n = int(rng.integers(2, 9))
        A = matrix.random_hermitian(n, rng)
        rep = matrix.verify_spectrum_identity(A)
        if not rep.passed:
            problems.append(f"matrix {i} (n={n}): error {rep.max_error}")
            break
    return _verdict("spectrum-identity", problems,
                    f"{count} random Hermitians, quasipoint and ideal images within 1e-9")


def criterion_ray_layer(seed: int = 7) -> Check:
    rng = _rng(seed, 8)
    problems: list[str] = []
    # span law on 10^4 random triples
    total_violations = 0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A = matrix.random_hermitian(n, rng)
        rep = matrix.verify_ray_axioms(A, rng, samples=1000)
        total_violations += rep.span_violations + rep.sublevel_violations
    if total_violations:
        problems.append(f"{total_violations} ray-axiom violations")
    # sandwich on 10^4 rays
    bad_sandwich = 0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = matrix.eig(matrix.random_hermitian(n, rng))
        t = matrix.ray_table(d, matrix.random_rays(n, 1000, rng).T)
        matrix.warn_band(int(np.count_nonzero(t.band)), len(t.band))
        e, tol = t.expectation, matrix.MAT_TOL * d.norm()
        bad_sandwich += int(np.count_nonzero(~((t.g <= e + tol) & (e <= t.f + tol))))
    if bad_sandwich:
        problems.append(f"{bad_sandwich} sandwich violations")
    # blind reconstruction from ray values with resolving probes
    for i in range(50):
        d = matrix.eig(matrix.random_hermitian(int(rng.integers(2, 9)), rng))
        ok, dist = matrix.verify_ray_rebuild(d, matrix.resolving_probes(d, rng))
        if not ok:
            problems.append(f"reconstruction {i} off by {dist}")
            break
    return _verdict("ray-layer", problems,
                    "10^4 span triples, 10^4 sandwiches, 50 ray reconstructions within 1e-8")


def suite_matrix(seed: int = 7) -> list[Check]:
    rng = _rng(seed, 9)
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])

    def clustering():
        d = matrix.eig(np.diag([1.0, 2.0, 2.0]))
        return (d.values.tolist() == [1.0, 2.0]
                and int(round(float(np.trace(d.projection(1)).real))) == 2)

    def pauli_x_projector():
        d = matrix.eig(pauli_x)
        plus = (np.array([1.0, 1.0]) / np.sqrt(2)).astype(np.complex128)
        return (d.values.tolist() == [-1.0, 1.0]
                and np.abs(d.projection(1) - np.outer(plus, plus)).max() < matrix.PROJECTOR_TOL)

    def zero_operator():
        d = matrix.eig(np.zeros((3, 3)))
        return d.values.tolist() == [0.0] and matrix.spectral_family_of(d).jumps() == [(0.0, 1)]

    def scaled_spectrum():  # far below norm 1, where an absolute floor would merge
        s = 2.0**-40
        d = matrix.eig(np.diag([1.0, 2.0, 3.0]) * s)
        t = matrix.ray_table(d, np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        return (d.m == 3
                and [lam for lam, _ in matrix.spectral_family_of(d).jumps()] == [s, 2 * s, 3 * s]
                and bool(((t.g <= t.expectation) & (t.expectation <= t.f)).all())
                and matrix.step_approx(d, 0.3 * s)[1].passed)

    def ray_values():
        A = np.diag([1.0, 2.0, 3.0])
        return (matrix.ray_obs(A, [1, 0, 0]) == 1.0 and matrix.ray_obs(A, [1, 1, 0]) == 2.0
                and matrix.ray_obs(A, [1, 1, 1]) == 3.0)

    def sandwich_example():
        B = np.diag([0.0, 10.0])
        x = np.array([3.0, 1.0]) / np.sqrt(10)
        return (matrix.mirrored_ray(B, x) == 0.0 and matrix.ray_obs(B, x) == 10.0
                and abs(matrix.expectation(B, x) - 1.0) < matrix.MAT_TOL * np.abs(B).max())

    def unitary_covariance():
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = matrix.random_hermitian(n, rng)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            U, _ = np.linalg.qr(g)
            x, d = matrix.random_ray(n, rng), matrix.eig(A)
            moved = matrix.ray_obs(U @ A @ U.conj().T, U @ x)
            if abs(moved - matrix.ray_obs(d, x)) > matrix.MAT_TOL * d.norm():
                return False
        return True

    def infsup_extension():  # along projector chains
        return all(matrix.verify_infsup_extension(
            matrix.random_hermitian(int(rng.integers(2, 5)), rng), rng, rays=20).passed
            for _ in range(5))

    def eigenvalue_plateaus():
        return all(
            matrix.verify_eigenvalue_plateaus(
                matrix.random_hermitian(int(rng.integers(2, 7)), rng)).passed
            for _ in range(10)
        ) and matrix.verify_eigenvalue_plateaus(np.diag([1.0, 2.0, 2.0])).passed

    def rank_one_extension():
        d = matrix.eig(np.diag([1.0, 2.0]))
        r_full = matrix.rank_one_extension(d, np.eye(2), rng)
        r_e1 = matrix.rank_one_extension(d, np.diag([1.0, 0.0]), rng)
        r_mix = matrix.rank_one_extension(d, np.array([[0.5, 0.5], [0.5, 0.5]]), rng)
        return ((r_full.value, r_e1.value, r_mix.value) == (2.0, 1.0, 2.0)
                and r_full.passed and r_e1.passed and r_mix.passed)

    def bridge_coherence():  # atom filters take the eigenvalues
        for _ in range(10):
            d = matrix.eig(matrix.random_hermitian(int(rng.integers(2, 7)), rng))
            f = observable_fn(matrix.spectral_family_of(d))
            if (f.values[f.lattice.atom_index()] != d.values).any():
                return False
        return True

    def unresolved_probes_detectable():
        d = matrix.eig(matrix.random_hermitian(4, rng))
        try:
            return matrix.verify_ray_rebuild(d, matrix.default_probes(4, rng))[1] == float("inf")
        except matrix.ProbeResolutionError:
            return True

    def structured_probe_recovery():
        return all(matrix.verify_ray_rebuild(a, probes)[0] for a, probes in [
            (np.diag([1.0, 2.0, 2.0]), matrix.default_probes(3, rng)),
            (pauli_x, matrix.default_probes(2, rng) + [np.array([1.0, -1.0])])])

    return _run([
        ("spectrum-identity", lambda: criterion_spectrum_identity(seed, count=60)),
        ("ray-layer", lambda: criterion_ray_layer(seed)),
        ("translation-and-step-approximation", lambda: criterion_translation_and_step_approx(seed)),
        # hand-checked decompositions
        ("matrix/clustering", clustering),
        ("matrix/pauli-x", pauli_x_projector),
        ("matrix/zero-operator", zero_operator),
        ("matrix/scaled-spectrum", scaled_spectrum),
        # ray examples
        ("matrix/ray-values", ray_values),
        ("matrix/sandwich-example", sandwich_example),
        ("matrix/unitary-covariance", unitary_covariance),
        ("matrix/infsup-extension", infsup_extension),
        ("matrix/eigenvalue-plateaus", eigenvalue_plateaus),
        ("matrix/rank-one-extension", rank_one_extension),
        ("matrix/bridge-coherence", bridge_coherence),
        # complex observables decompose into Hermitian parts
        ("matrix/complex-parts", lambda: matrix.complex_observable(
            np.diag([1.0 + 1j, 2.0 - 3j]), [1, 1]) == complex(2.0, 1.0)),
        # default probes cannot resolve a generic spectrum: a generic ray lies in
        # no proper spectral subspace, so the attempt either raises or collapses
        # to a visibly wrong family (never a silent near-miss)
        ("matrix/unresolved-probes-detectable", unresolved_probes_detectable),
        # ...but they do resolve coordinate-aligned spectra
        ("matrix/structured-probe-recovery", structured_probe_recovery),
    ])


# ---------------------------------------------------------------------------
# gelfand suite


def criterion_gelfand_layer(seed: int = 7) -> Check:
    rng = _rng(seed, 10)
    problems: list[str] = []
    pair_budget = 500
    dims = (2, 3, 4, 5, 6)
    per = pair_budget // len(dims)
    for n in dims:
        alg = gelfand.DiagonalAlgebra.of_dimension(n)
        rep = gelfand.verify_homomorphism(alg, rng, pairs=per)
        if not rep.passed:
            problems.append(
                f"homomorphism fails at n={n}: isometry error {rep.isometry_error}"
            )
    for i in range(200):
        n = int(rng.integers(2, 7))
        alg = gelfand.DiagonalAlgebra.of_dimension(n)
        entries = rng.standard_normal(n)
        rep = gelfand.verify_gelfand_identity(alg, entries)
        if not rep.passed:
            problems.append(f"observable/transform identity fails at sample {i}")
            break
    return _verdict("gelfand-layer", problems,
                    "500 homomorphism pairs exact, 200 diagonal identities exact")


def suite_gelfand(seed: int = 7) -> list[Check]:
    rng = _rng(seed, 11)
    alg2 = gelfand.DiagonalAlgebra.of_dimension(2)
    alg3 = gelfand.DiagonalAlgebra.of_dimension(3)

    def orthogonal_representation():
        rep = gelfand.orthogonal_representation(alg3, [2.0, 2.0, 5.0])
        return rep.coefficients == (2.0 + 0j, 5.0 + 0j) and rep.supports == ((0, 1), (2,))

    def zero_and_complex():
        rep0 = gelfand.orthogonal_representation(alg2, [0.0, 0.0])
        rep_i = gelfand.orthogonal_representation(alg2, [1.0, 1j])
        return rep0.coefficients == () and set(rep_i.coefficients) == {1.0 + 0j, 1j}

    @_once
    def adjoints_and_onto():  # (adjoints map to conjugates, onto), one draw sequence
        adj_ok = True
        onto_ok = True
        for _ in range(20):
            entries = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            fa = gelfand.gelfand_transform(alg3, entries)
            adj_ok &= bool((gelfand.gelfand_transform(alg3, entries.conj()) == fa.conj()).all())
            # any target function on the quasipoints is the transform of its own
            # entry vector
            onto_ok &= bool((fa == gelfand.snap_entries(entries)).all())
        return adj_ok, onto_ok

    def diagonalization():  # conjugated algebras via the phase-fixed eigenbasis
        for _ in range(10):
            A = matrix.random_hermitian(int(rng.integers(2, 6)), rng)
            U, entries = gelfand.diagonalize(A)
            off = np.abs(U.conj().T @ A @ U - np.diag(entries)).max()
            if off > matrix.NORMAL_TOL * np.abs(A).max():  # |A| as diagonalize reads it
                return False
        return True

    return _run([
        ("gelfand-layer", lambda: criterion_gelfand_layer(seed)),
        ("gelfand/orthogonal-representation", orthogonal_representation),
        ("gelfand/zero-and-complex", zero_and_complex),
        ("gelfand/transform-values", lambda: gelfand.gelfand_transform(
            alg3, [2.0, 2.0, 5.0]).tolist() == [2.0 + 0j, 2.0 + 0j, 5.0 + 0j]),
        ("gelfand/characters", lambda: gelfand.verify_characters(alg3).passed),
        # the transform maps adjoints to conjugates and hits every function
        ("gelfand/adjoints", lambda: adjoints_and_onto()[0]),
        ("gelfand/onto-functions", lambda: adjoints_and_onto()[1]),
        # a projection transforms to its characteristic function
        ("gelfand/projection-characteristic", lambda: gelfand.gelfand_transform(
            alg3, [1.0, 0.0, 1.0]).tolist() == [1.0 + 0j, 0j, 1.0 + 0j]),
        ("gelfand/diagonalization", diagonalization),
    ])


# ---------------------------------------------------------------------------
# suite registry and acceptance


SUITES = {
    "lattice": suite_lattice,
    "stone": suite_stone,
    "spectral": suite_spectral,
    "recon": suite_recon,
    "matrix": suite_matrix,
    "gelfand": suite_gelfand,
}


def run_suites(names, seed: int = 7) -> list[Check]:
    if "all" in names:
        names = list(SUITES)
    out: list[Check] = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        out.extend(SUITES[name](seed))
    return out


def acceptance(seed: int = 7) -> list[Check]:
    """The eight acceptance criteria at their contract sizes."""
    return _run([
        ("spectrum-identity", lambda: criterion_spectrum_identity(seed, count=200)),
        ("reconstruction-round-trip",
         lambda: criterion_reconstruction_round_trip(seed, per_lattice=100)),
        ("increasing-function-bijection",
         lambda: criterion_increasing_bijection(seed, instances=1000)),
        ("distributivity-dichotomy", lambda: criterion_distributivity_dichotomy(seed)),
        ("translation-and-step-approximation", lambda: criterion_translation_and_step_approx(seed)),
        ("ray-layer", lambda: criterion_ray_layer(seed)),
        ("gelfand-layer", lambda: criterion_gelfand_layer(seed)),
        ("stone-structure", lambda: criterion_stone_structure(seed)),
    ])


def render_text(checks: list[Check]) -> str:
    lines = [c.line() for c in checks]
    failed = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"


def render_json(checks: list[Check]) -> str:
    return json.dumps(
        [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in checks
        ],
        indent=2,
    ) + "\n"


def render_csv(checks: list[Check]) -> str:
    lines = ["name,passed,detail"]
    for c in checks:
        detail = c.detail.replace('"', "'")
        lines.append(f'{c.name},{int(c.passed)},"{detail}"')
    return "\n".join(lines) + "\n"
