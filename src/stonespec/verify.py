"""Verification corpus: every structural fact the library is built on,
bundled into named pass/fail checks.

The suites back the ``verify`` CLI command; the acceptance criteria reuse
the same machinery at their contract sizes and tolerances.  All randomness
is drawn from seeded generators so reports are byte-for-byte reproducible.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import gelfand, matrix, recon, spectral, stone
from .corpus import corpus
from .errors import LatticeError
from .lattice import FiniteOML, generated_sublattice, verify_structure
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


def _check(name: str, passed: bool, detail: str = "") -> Check:
    return Check(name, bool(passed), detail)


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
    checks: list[Check] = []
    lattices = corpus()
    rng = _rng(seed, 1)
    for name, L in lattices.items():
        rep = verify_structure(L)
        oc, om, di = _EXPECTED[name]
        ok = (
            rep.is_lattice
            and rep.is_ortho_complemented == oc
            and rep.is_orthomodular == om
            and rep.is_distributive == di
            and rep.is_boolean == (oc and di)
            and rep.is_atomistic == om  # benzene is the only non-atomistic one
        )
        checks.append(_check(f"lattice/verdicts/{name}", ok, str(rep.to_dict()["witnesses"])))
        if not om:
            a, b = rep.witnesses["is_orthomodular"]
            lhs = L.join(a, L.meet(b, L.complement(a)))
            checks.append(
                _check(
                    f"lattice/orthomodular-witness/{name}",
                    L.le(a, b) and lhs != b,
                    f"{L.names[a]} <= {L.names[b]} but relative join gives {L.names[lhs]}",
                )
            )
        if not di:
            a, b, c = rep.witnesses["is_distributive"]
            lhs = L.meet(a, L.join(b, c))
            rhs = L.join(L.meet(a, b), L.meet(a, c))
            checks.append(
                _check(f"lattice/distributive-witness/{name}", lhs != rhs)
            )
    # universal property of the precomputed bounds, exhaustively
    for name in ("B2", "MO2", "MO3", "benzene-O6", "2^3"):
        L = lattices[name]
        good = True
        for a in range(L.n):
            for b in range(L.n):
                m, j = L.meet(a, b), L.join(a, b)
                if not (L.le(m, a) and L.le(m, b) and L.le(a, j) and L.le(b, j)):
                    good = False
                for c in range(L.n):
                    if L.le(c, a) and L.le(c, b) and not L.le(c, m):
                        good = False
                    if L.le(a, c) and L.le(b, c) and not L.le(j, c):
                        good = False
        checks.append(_check(f"lattice/bound-universality/{name}", good))
    # De Morgan on the ortho-complemented corpus
    for name, L in lattices.items():
        good = all(
            L.complement(L.join(a, b)) == L.meet(L.complement(a), L.complement(b))
            for a in range(L.n)
            for b in range(L.n)
        )
        checks.append(_check(f"lattice/de-morgan/{name}", good))
    # verdicts are invariant under relabeling
    for name, L in lattices.items():
        perm = rng.permutation(L.n)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(L.n)
        names2 = [L.names[int(inv[i])] for i in range(L.n)]
        leq2 = L.leq.take(inv, axis=0).take(inv, axis=1)
        ortho2 = perm[L.ortho[inv]]
        L2 = FiniteOML(names2, leq2, ortho2)
        r1, r2 = verify_structure(L), verify_structure(L2)
        same = all(
            getattr(r1, k) == getattr(r2, k)
            for k in (
                "is_lattice",
                "is_ortho_complemented",
                "is_orthomodular",
                "is_distributive",
                "is_boolean",
                "is_atomistic",
            )
        )
        checks.append(_check(f"lattice/relabeling-invariance/{name}", same))
    # atomicity: every nonzero element dominates an atom
    for name, L in lattices.items():
        atoms = L.atoms()
        good = all(any(L.le(t, int(p)) for t in atoms) for p in L.nonzero())
        checks.append(_check(f"lattice/atomicity/{name}", good))
    # empty bounds and a derived multi-element example
    L = lattices["MO2"]
    checks.append(
        _check(
            "lattice/empty-bounds",
            L.big_meet([]) == L.top and L.big_join([]) == L.bottom,
        )
    )
    a, b, bp = L.index("a"), L.index("b"), L.index("b'")
    checks.append(
        _check(
            "lattice/mo2-bounds",
            L.meet(a, b) == L.bottom
            and L.join(a, b) == L.top
            and L.big_meet([a, b, bp]) == L.bottom,
        )
    )
    # generated sublattices
    B2 = lattices["B2"]
    sub, _ = generated_sublattice(B2, [B2.index("p")])
    checks.append(_check("lattice/generated/B2-from-p", sub.n == 4))
    MO2 = lattices["MO2"]
    sub, _ = generated_sublattice(MO2, [MO2.index("a"), MO2.index("b")])
    checks.append(_check("lattice/generated/MO2-from-ab", sub.n == 6))
    C3 = lattices["2^3"]
    sub, _ = generated_sublattice(C3, [1, 2, 4])
    checks.append(_check("lattice/generated/2^3-from-atoms", sub.n == 8))
    return checks


# ---------------------------------------------------------------------------
# stone suite


def criterion_stone_structure(seed: int = 7) -> Check:
    lattices = corpus()
    problems: list[str] = []
    for name, L in lattices.items():
        if not stone.verify_basis_identities(L).passed:
            problems.append(f"basis identities fail on {name}")
        if verify_structure(L).is_orthomodular:
            if not stone.verify_principal_intersection(L).passed:
                problems.append(f"principal intersection fails on {name}")
        if not stone.stone_density(L):
            problems.append(f"density fails on {name}")
        # closure witness H_{P1} in cl(D_P) \ D_P for any chain 0 < P < P1;
        # only the two-element lattice has no such chain
        chain = None
        for p in L.nonzero():
            for p1 in L.nonzero():
                if p != p1 and L.le(int(p), int(p1)):
                    chain = (int(p), int(p1))
                    break
            if chain:
                break
        if chain is None and len(L.nonzero()) > 1:
            problems.append(f"no chain found on {name}")
        if chain:
            p, p1 = chain
            closure = stone.basis_closure(L, p)
            gens = {i.generator for i in closure}
            slow = {i.generator for i in stone.ideal_closure(L, stone.ideals_containing(L, p))}
            if gens != slow:
                problems.append(f"closure fast path disagrees on {name}")
            in_closure = p1 in gens
            in_basis = bool(L.leq[p1, p])  # H_{p1} lies in D_p iff p1 <= p
            if not (in_closure and not in_basis):
                problems.append(f"closure witness fails on {name}")
        if L.n <= stone.BRUTE_FORCE_LIMIT:
            ideals = {i.member_set() for i in stone.enumerate_dual_ideals(L)}
            if set(stone.brute_force_dual_ideals(L)) != ideals:
                problems.append(f"principal enumeration disagrees with subset scan on {name}")
            points = {q.member_set() for q in stone.quasipoints(L)}
            if set(stone.brute_force_quasipoints(L)) != points:
                problems.append(f"atom filters disagree with the maximality scan on {name}")
    return _check(
        "stone-structure",
        not problems,
        "; ".join(problems) if problems else "basis laws, filter intersection, density, closure witness, enumeration oracles",
    )


def suite_stone(seed: int = 7) -> list[Check]:
    checks = [criterion_stone_structure(seed)]
    lattices = corpus()
    # counted enumerations
    B2, MO2 = lattices["B2"], lattices["MO2"]
    checks.append(
        _check(
            "stone/counts",
            len(stone.enumerate_dual_ideals(B2)) == 3
            and len(stone.quasipoints(B2)) == 2
            and len(stone.enumerate_dual_ideals(MO2)) == 5
            and len(stone.quasipoints(MO2)) == 4
            and len(stone.enumerate_dual_ideals(lattices["chain-2"])) == 1
            and len(stone.quasipoints(lattices["2^3"])) == 3,
        )
    )
    # principal filters
    p = B2.index("p")
    checks.append(
        _check(
            "stone/principal-filter/B2",
            stone.principal_filter(B2, p).member_set() == {p, B2.top},
        )
    )
    ok = True
    try:
        stone.principal_filter(B2, B2.bottom)
        ok = False
    except LatticeError:
        pass
    checks.append(_check("stone/principal-filter/rejects-bottom", ok))
    # filter clauses on explicit subsets
    q = B2.index("q")
    checks.append(
        _check(
            "stone/is-dual-ideal",
            stone.is_dual_ideal(B2, {B2.top})
            and not stone.is_dual_ideal(B2, {p, q, B2.top})
            and not stone.is_dual_ideal(B2, set()),
        )
    )
    # the map a -> H_a reverses order and turns joins into intersections
    for name in ("B2", "MO2", "2^3", "benzene-O6"):
        L = lattices[name]
        good = True
        nz = [int(x) for x in L.nonzero()]
        for a in nz:
            for b in nz:
                ha = stone.principal_filter(L, a).member_set()
                hb = stone.principal_filter(L, b).member_set()
                if (ha <= hb) != L.le(b, a):
                    good = False
                if ha & hb != stone.principal_filter(L, L.join(a, b)).member_set():
                    good = False
        checks.append(_check(f"stone/filter-order-reversal/{name}", good))
    # the complement-cover criterion detects distributivity on the
    # orthomodular corpus
    for name, L in lattices.items():
        rep = verify_structure(L)
        if not rep.is_orthomodular:
            continue
        covers = all(stone.complement_covers(L, a) for a in range(L.n))
        checks.append(
            _check(
                f"stone/complement-cover/{name}",
                covers == rep.is_distributive,
            )
        )
    # non-Hausdorff witness is reproduced in 2^3 with coordinate projections
    C3 = lattices["2^3"]
    e1, e12 = 1, 3
    closure_gens = {i.generator for i in stone.basis_closure(C3, e1)}
    checks.append(
        _check(
            "stone/closure-witness/2^3",
            e12 in closure_gens and not C3.le(e12, e1),
        )
    )
    return checks


# ---------------------------------------------------------------------------
# spectral suite


def _projection_family_example():
    """The two-jump family of a projection on B2 (complement at 0, top at 1)."""
    B2 = corpus()["B2"]
    p, q = B2.index("p"), B2.index("q")
    return B2, p, q, make_spectral_family(B2, [(0.0, p), (1.0, B2.top)])


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
        if len(sp1) != len(sp2) or np.abs(sp1 - sp2).max() > 1e-9:
            problems.append("matrix spectrum does not translate")
            break
        x = matrix.random_ray(n, rng)
        if abs(matrix.ray_obs(A + a * np.eye(n), x) - (a + matrix.ray_obs(A, x))) > 1e-9:
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
    return _check(
        "translation-and-step-approximation",
        not problems,
        "; ".join(problems) if problems else "exact lattice shift, 1e-9 matrix shift, eps in {1, 0.1, 0.01}",
    )


def suite_spectral(seed: int = 7) -> list[Check]:
    checks: list[Check] = []
    rng = _rng(seed, 2)
    lattices = corpus()
    B2, p, q, E5 = _projection_family_example()
    f5 = observable_fn(E5)
    checks.append(
        _check(
            "spectral/projection-pattern",
            float(f5.values[p]) == 0.0
            and float(f5.values[q]) == 1.0
            and float(f5.values[B2.top]) == 1.0
            and f5.image("quasipoints").tolist() == [0.0, 1.0]
            and f5.image("dual_ideals").tolist() == [0.0, 1.0],
        )
    )
    checks.append(
        _check(
            "spectral/step-evaluation",
            E5.value_at(0.5) == p and E5.value_at(-1.0) == B2.bottom and E5.value_at(1.0) == B2.top,
        )
    )
    # validation errors
    bad = False
    try:
        make_spectral_family(B2, [(0.0, p), (1.0, p)])
    except LatticeError:
        bad = True
    checks.append(_check("spectral/rejects-flat-values", bad))
    # spectralization: left-continuous input and idempotence
    pre = spectral.make_pre_spectral_family(B2, [(0.0, p, False), (1.0, B2.top, False)])
    checks.append(
        _check(
            "spectral/spectralization",
            spectral.spectralize(pre) == E5,
        )
    )
    idem = True
    for name, L in lattices.items():
        for _ in range(5):
            E = random_spectral_family(L, rng)
            pre = spectral.make_pre_spectral_family(
                L, [(l, v, True) for l, v in E.jumps()]
            )
            if spectral.spectralize(pre) != E:
                idem = False
    checks.append(_check("spectral/spectralization-idempotent", idem))
    # negation: involution, closed form, projection identity
    neg_ok = True
    for name, L in lattices.items():
        for _ in range(5):
            E = random_spectral_family(L, rng)
            N = negate(E)
            if negate(N) != E:
                neg_ok = False
            grid = np.concatenate([E.thresholds, E.thresholds - 0.5, E.thresholds + 0.25])
            for lam in grid:
                want = L.complement(E.value_before(-float(lam)))
                if N.value_at(float(lam)) != want:
                    neg_ok = False
    checks.append(_check("spectral/negation-closed-form", neg_ok))
    N5 = negate(E5)
    checks.append(
        _check(
            "spectral/negation-of-projection",
            N5.jumps() == [(-1.0, q), (0.0, B2.top)],
            "complemented value reflects to the negative axis",
        )
    )
    # mirrored tables: identity with the negated family, order, asymmetry
    mirror_ok = True
    for name, L in lattices.items():
        for _ in range(6):
            E = random_spectral_family(L, rng)
            g = mirrored_fn(E)
            h = observable_fn(negate(E))
            nz = L.nonzero()
            if not (g.values[nz] == -h.values[nz]).all():
                mirror_ok = False
            f = observable_fn(E)
            if any(float(g.values[t]) > float(f.values[t]) for t in L.atoms()):
                mirror_ok = False
    checks.append(_check("spectral/mirror-vs-negation", mirror_ok))
    MO2 = lattices["MO2"]
    E_mo = make_spectral_family(MO2, [(0.0, MO2.index("a")), (1.0, MO2.top)])
    fb = float(observable_fn(E_mo).values[MO2.index("b")])
    gb = float(mirrored_fn(E_mo).values[MO2.index("b")])
    checks.append(
        _check(
            "spectral/mirror-asymmetry/MO2",
            fb == 1.0 and gb == 0.0,
            "observable and mirrored tables split on a non-distributive lattice",
        )
    )
    # restriction: constants, presheaf law, quasipoint compatibility
    r5 = restrict(E5, p)
    checks.append(
        _check(
            "spectral/restriction-constant",
            r5.family.jumps() == [(0.0, r5.family.lattice.top)],
        )
    )
    C3 = lattices["2^3"]
    E3 = make_spectral_family(C3, [(0.0, 1), (1.0, 3), (2.0, 7)])
    r3 = restrict(E3, 3)
    checks.append(
        _check(
            "spectral/restriction-meets",
            [(l, int(r3.embed[v])) for l, v in r3.family.jumps()] == [(0.0, 1), (1.0, 3)],
        )
    )
    presheaf_ok = True
    compat_ok = True
    for name in ("2^3", "2^4", "MO2"):
        L = lattices[name]
        for _ in range(8):
            E = random_spectral_family(L, rng)
            bs = [int(b) for b in L.nonzero() if b != L.bottom]
            b = int(rng.choice(bs))
            others = [int(a) for a in np.flatnonzero(L.leq[:, b]) if a != L.bottom]
            a = int(rng.choice(others))
            one = restrict(E, a)
            mid = restrict(E, b)
            a_in_mid = int(np.flatnonzero(mid.embed == a)[0])
            two = restrict(mid.family, a_in_mid)
            jumps_one = one.embedded_jumps()
            jumps_two = [
                (l, int(mid.embed[two.embed[v]]))
                for l, v in two.family.jumps()
            ]
            if jumps_one != jumps_two:
                presheaf_ok = False
            if restrict(E, L.top).embedded_jumps() != E.jumps():
                presheaf_ok = False
            f = observable_fn(E)
            for t in L.atoms():
                if not L.le(t, a):
                    continue
                point = stone.Quasipoint(L, t)
                if value_at_quasipoint(one, point) != float(f.values[t]):
                    compat_ok = False
    checks.append(_check("spectral/presheaf-law", presheaf_ok))
    checks.append(_check("spectral/restriction-compatibility", compat_ok))
    # intersection law, upper semicontinuity, minimal ideals
    checks.append(
        _check(
            "spectral/intersection-law",
            spectral.verify_intersection_law(E5).passed
            and spectral.verify_intersection_law(E3).passed,
        )
    )
    usc_ok = all(
        spectral.verify_upper_semicontinuity(random_spectral_family(L, rng)).passed
        for L in lattices.values()
    )
    checks.append(_check("spectral/upper-semicontinuity", usc_ok))
    m0 = spectral.minimal_ideal(E5, 0.0)
    m1 = spectral.minimal_ideal(E5, 1.0)
    checks.append(
        _check(
            "spectral/minimal-ideals",
            m0.generator == p and m1.generator == B2.top,
        )
    )
    min_ok = True
    for name, L in lattices.items():
        for _ in range(6):
            E = random_spectral_family(L, rng)
            for lam, v in E.jumps():
                try:
                    ideal = spectral.minimal_ideal(E, lam)
                except LatticeError:
                    min_ok = False
                    continue
                if L.big_meet(ideal.members().tolist()) != v:
                    min_ok = False
    checks.append(_check("spectral/minimal-ideal-infimum", min_ok))
    # the min formula and antitone behaviour of the table on ideals
    prop_ok = True
    for name, L in lattices.items():
        E = random_spectral_family(L, rng)
        f = observable_fn(E)
        nz = [int(x) for x in L.nonzero()]
        for g in nz:
            members = L.upset(g)
            if float(f.values[g]) != float(np.min(f.values[members])):
                prop_ok = False
        for a in nz:
            for b in nz:
                if L.le(a, b) and float(f.values[a]) > float(f.values[b]):
                    prop_ok = False
        # the filter value is the sup over the quasipoints containing it
        if verify_structure(L).is_orthomodular:
            for g in nz:
                sup = max(
                    float(f.values[t]) for t in L.atoms() if L.le(t, g)
                )
                if sup != float(f.values[g]):
                    prop_ok = False
    checks.append(_check("spectral/min-formula-and-monotonicity", prop_ok))
    # identical tables only for identical families
    unique_ok = True
    for name, L in lattices.items():
        for _ in range(8):
            E = random_spectral_family(L, rng)
            F = random_spectral_family(L, rng)
            if (observable_fn(E) == observable_fn(F)) != (E == F):
                unique_ok = False
    checks.append(_check("spectral/table-determines-family", unique_ok))
    # germ equivalence forces equal values
    C3 = lattices["2^3"]
    pairs = []
    for _ in range(20):
        P = int(rng.integers(1, C3.n))
        Q = int(rng.integers(1, C3.n))
        E = random_spectral_family(C3, rng)
        F = random_spectral_family(C3, rng)
        pairs.append((restrict(E, P), restrict(F, Q)))
        # restrictions of one family are equivalent wherever both are defined
        pairs.append((restrict(E, P), restrict(E, Q)))
    germ_rep = spectral.verify_germ_equivalence(C3, pairs)
    checks.append(
        _check(
            "spectral/germ-equivalence",
            germ_rep.passed,
            f"{germ_rep.equivalent_pairs} equivalent germs among {germ_rep.compared} comparisons",
        )
    )
    # explicit germ examples: same e1 component vs. different everywhere
    E = make_spectral_family(C3, [(0.0, 1), (1.0, 3), (2.0, 7)])
    F = make_spectral_family(C3, [(0.0, 1), (1.5, 5), (2.5, 7)])
    point = stone.Quasipoint(C3, 1)
    same = spectral.equivalent_at(restrict(E, 3), restrict(F, 5), point)
    G = make_spectral_family(C3, [(0.25, 2), (0.75, 3), (2.0, 7)])
    differ = spectral.equivalent_at(E, G, point)
    checks.append(_check("spectral/germ-examples", same and not differ))
    checks.append(criterion_translation_and_step_approx(seed))
    return checks


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
    return _check(
        "reconstruction-round-trip",
        not problems,
        "; ".join(problems) if problems else f"{per_lattice} families per corpus lattice, bit-exact thresholds",
    )


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
    return _check(
        "increasing-function-bijection",
        not problems,
        "; ".join(problems) if problems else f"{instances} mutual inverses; pairwise = family law on all corpus lattices <= 12 elements",
    )


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
        verdict = recon.mirror_symmetry_test(L, distributive=True)
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
        b, bp = L.index("b"), L.index("b'")
        if witness is not None and set(witness) != {b, bp} and witness != (b, bp):
            # any complementary pair outside a is a valid witness; record oddities
            x, y = witness
            if L.join(x, y) != L.top:
                problems.append(f"witness on {name} is not a complementary pair")
        E = make_spectral_family(L, [(0.0, a), (1.0, L.top)])
        f, g = observable_fn(E), mirrored_fn(E)
        if not any(
            float(f.values[t]) != float(g.values[t]) for t in atoms
        ):
            problems.append(f"no mirrored split found on {name}")
        verdict = recon.mirror_symmetry_test(L, distributive=False)
        if verdict.symmetric:
            problems.append(f"mirror asymmetry not detected on {name}")
    return _check(
        "distributivity-dichotomy",
        not problems,
        "; ".join(problems) if problems else "all {0, 1/2, 1}-valued quasipoint data realized on Boolean corpus; characteristic data rejected on MO2/MO3",
    )


def suite_recon(seed: int = 7) -> list[Check]:
    checks = [
        criterion_reconstruction_round_trip(seed, per_lattice=40),
        criterion_increasing_bijection(seed, instances=300),
        criterion_distributivity_dichotomy(seed),
    ]
    lattices = corpus()
    B2 = lattices["B2"]
    p, q = B2.index("p"), B2.index("q")
    vals = np.full(B2.n, np.nan)
    vals[p], vals[q], vals[B2.top] = 0.0, 1.0, 1.0
    r = spectral.ObservableTable(B2, vals)
    ok, _ = recon.is_completely_increasing(B2, r)
    f = recon.f_from_r(B2, r)
    E = recon.reconstruct(B2, f)
    checks.append(
        _check(
            "recon/projection-example",
            ok and E.jumps() == [(0.0, p), (1.0, B2.top)],
        )
    )
    # the characteristic function at one MO2 atom is not completely increasing
    MO2 = lattices["MO2"]
    vals = np.full(MO2.n, np.nan)
    for x in MO2.nonzero():
        vals[x] = 0.0
    vals[MO2.index("a")] = 1.0
    vals[MO2.top] = 1.0
    bad = spectral.ObservableTable(MO2, vals)
    ok, witness = recon.is_completely_increasing(MO2, bad)
    checks.append(
        _check(
            "recon/characteristic-witness",
            not ok and witness is not None and MO2.join(*witness) == MO2.top,
            f"witness pair {witness}",
        )
    )
    # sublevel sets: ideals exactly when the function is completely increasing
    rep = recon.verify_sublevel_ideals(B2, r)
    rep_bad = recon.verify_sublevel_ideals(MO2, bad)
    checks.append(
        _check(
            "recon/sublevel-ideals",
            rep.passed and not rep_bad.passed,
            f"proper levels {rep.proper_levels} vs failing {rep_bad.failures[:1]}",
        )
    )
    rng = _rng(seed, 6)
    sub_ok = True
    for name, L in lattices.items():
        for _ in range(5):
            r = recon.random_increasing_table(L, rng)
            if not recon.verify_sublevel_ideals(L, r).passed:
                sub_ok = False
    checks.append(_check("recon/sublevel-ideals-random", sub_ok))
    # stepwise verification of the rebuild pipeline; the corpus numbers its
    # elements along the order, so each lattice is also checked with its
    # indices reversed, where a level set's join is its first index
    steps_ok = True
    for name, L in lattices.items():
        flipped = FiniteOML(L.names[::-1], L.leq[::-1, ::-1], L.n - 1 - L.ortho[::-1])
        for M in (L, flipped):
            for _ in range(5):
                f = recon.random_increasing_table(M, rng)
                try:
                    steps_ok &= recon.verify_reconstruction_steps(M, f).passed
                except LatticeError:
                    steps_ok = False
    checks.append(_check("recon/pipeline-steps", steps_ok))
    # constant data reconstructs to the one-jump family
    const_ok = True
    for name, L in lattices.items():
        data = {t: 2.5 for t in L.atoms()}
        family, _ = recon.observable_from_quasipoint_data(L, data)
        if family is None or family.jumps() != [(2.5, L.top)]:
            const_ok = False
    checks.append(_check("recon/constant-data", const_ok))
    return checks


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
    return _check(
        "spectrum-identity",
        not problems,
        "; ".join(problems) if problems else f"{count} random Hermitians, quasipoint and ideal images within 1e-9",
    )


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
        A = matrix.random_hermitian(n, rng)
        t = matrix.ray_table(A, matrix.random_rays(n, 1000, rng).T)
        matrix.warn_band(int(np.count_nonzero(t.band)), len(t.band))
        e = t.expectation
        bad_sandwich += int(np.count_nonzero(~((t.g <= e + 1e-9) & (e <= t.f + 1e-9))))
    if bad_sandwich:
        problems.append(f"{bad_sandwich} sandwich violations")
    # blind reconstruction from ray values with resolving probes
    for i in range(50):
        n = int(rng.integers(2, 9))
        A = matrix.random_hermitian(n, rng)
        d = matrix.eig(A)
        probes = matrix.resolving_probes(d, rng)
        fam = matrix.reconstruct_from_rays(lambda x: matrix.ray_obs(d, x), probes)
        dist = matrix.projector_distance(fam, matrix.projector_family_of(d))
        if dist > 1e-8:
            problems.append(f"reconstruction {i} off by {dist}")
            break
    return _check(
        "ray-layer",
        not problems,
        "; ".join(problems) if problems else "10^4 span triples, 10^4 sandwiches, 50 ray reconstructions within 1e-8",
    )


def suite_matrix(seed: int = 7) -> list[Check]:
    checks = [
        criterion_spectrum_identity(seed, count=60),
        criterion_ray_layer(seed),
        criterion_translation_and_step_approx(seed),
    ]
    rng = _rng(seed, 9)
    # hand-checked decompositions
    d = matrix.eig(np.diag([1.0, 2.0, 2.0]))
    checks.append(
        _check(
            "matrix/clustering",
            d.values.tolist() == [1.0, 2.0]
            and int(round(float(np.trace(d.projection(1)).real))) == 2,
        )
    )
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    d = matrix.eig(pauli_x)
    plus = (np.array([1.0, 1.0]) / np.sqrt(2)).astype(np.complex128)
    checks.append(
        _check(
            "matrix/pauli-x",
            d.values.tolist() == [-1.0, 1.0]
            and float(np.abs(d.projection(1) - np.outer(plus, plus)).max()) < 1e-12,
        )
    )
    d = matrix.eig(np.zeros((3, 3)))
    checks.append(
        _check(
            "matrix/zero-operator",
            d.values.tolist() == [0.0]
            and matrix.spectral_family_of(d).jumps() == [(0.0, 1)],
        )
    )
    # ray examples
    A = np.diag([1.0, 2.0, 3.0])
    checks.append(
        _check(
            "matrix/ray-values",
            matrix.ray_obs(A, [1, 0, 0]) == 1.0
            and matrix.ray_obs(A, [1, 1, 0]) == 2.0
            and matrix.ray_obs(A, [1, 1, 1]) == 3.0,
        )
    )
    B = np.diag([0.0, 10.0])
    x = np.array([3.0, 1.0]) / np.sqrt(10)
    checks.append(
        _check(
            "matrix/sandwich-example",
            matrix.mirrored_ray(B, x) == 0.0
            and abs(matrix.expectation(B, x) - 1.0) < 1e-12
            and matrix.ray_obs(B, x) == 10.0,
        )
    )
    # unitary covariance
    cov_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = matrix.random_hermitian(n, rng)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U, _ = np.linalg.qr(g)
        x = matrix.random_ray(n, rng)
        if abs(
            matrix.ray_obs(U @ A @ U.conj().T, U @ x) - matrix.ray_obs(A, x)
        ) > 1e-9:
            cov_ok = False
    checks.append(_check("matrix/unitary-covariance", cov_ok))
    # inf-sup extension along projector chains
    infsup_ok = True
    for _ in range(5):
        n = int(rng.integers(2, 5))
        A = matrix.random_hermitian(n, rng)
        if not matrix.verify_infsup_extension(A, rng, rays=20).passed:
            infsup_ok = False
    checks.append(_check("matrix/infsup-extension", infsup_ok))
    # eigenvalue plateaus
    plateau_ok = all(
        matrix.verify_eigenvalue_plateaus(matrix.random_hermitian(int(rng.integers(2, 7)), rng)).passed
        for _ in range(10)
    ) and matrix.verify_eigenvalue_plateaus(np.diag([1.0, 2.0, 2.0])).passed
    checks.append(_check("matrix/eigenvalue-plateaus", plateau_ok))
    # rank-one extension
    d = matrix.eig(np.diag([1.0, 2.0]))
    r_full = matrix.rank_one_extension(d, np.eye(2), rng)
    r_e1 = matrix.rank_one_extension(d, np.diag([1.0, 0.0]), rng)
    mix = np.array([[0.5, 0.5], [0.5, 0.5]])
    r_mix = matrix.rank_one_extension(d, mix, rng)
    checks.append(
        _check(
            "matrix/rank-one-extension",
            r_full.value == 2.0
            and r_e1.value == 1.0
            and r_mix.value == 2.0
            and r_full.passed
            and r_e1.passed
            and r_mix.passed,
        )
    )
    # bridge coherence: atom filters take the eigenvalues
    bridge_ok = True
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A = matrix.random_hermitian(n, rng)
        d = matrix.eig(A)
        f = observable_fn(matrix.spectral_family_of(d))
        for i in range(d.m):
            if float(f.values[1 << i]) != float(d.values[i]):
                bridge_ok = False
    checks.append(_check("matrix/bridge-coherence", bridge_ok))
    # complex observables decompose into Hermitian parts
    val = matrix.complex_observable(np.diag([1.0 + 1j, 2.0 - 3j]), [1, 1])
    checks.append(_check("matrix/complex-parts", val == complex(2.0, 1.0)))
    # default probes cannot resolve a generic spectrum: a generic ray lies in
    # no proper spectral subspace, so the attempt either raises or collapses
    # to a visibly wrong family (never a silent near-miss)
    A = matrix.random_hermitian(4, rng)
    d = matrix.eig(A)
    loud = False
    try:
        fam = matrix.reconstruct_from_rays(
            lambda x: matrix.ray_obs(d, x), matrix.default_probes(4, rng)
        )
        loud = matrix.projector_distance(fam, matrix.projector_family_of(d)) == float("inf")
    except matrix.ProbeResolutionError:
        loud = True
    checks.append(_check("matrix/unresolved-probes-detectable", loud))
    # ...but they do resolve coordinate-aligned spectra
    hidden = np.diag([1.0, 2.0, 2.0])
    dh = matrix.eig(hidden)
    fam = matrix.reconstruct_from_rays(
        lambda x: matrix.ray_obs(dh, x), matrix.default_probes(3, rng)
    )
    dist = matrix.projector_distance(fam, matrix.projector_family_of(dh))
    pauli = matrix.eig(pauli_x)
    fam2 = matrix.reconstruct_from_rays(
        lambda x: matrix.ray_obs(pauli, x),
        matrix.default_probes(2, rng) + [np.array([1.0, -1.0])],
    )
    dist2 = matrix.projector_distance(fam2, matrix.projector_family_of(pauli))
    checks.append(
        _check(
            "matrix/structured-probe-recovery",
            dist <= 1e-8 and dist2 <= 1e-8,
        )
    )
    return checks


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
    return _check(
        "gelfand-layer",
        not problems,
        "; ".join(problems) if problems else "500 homomorphism pairs exact, 200 diagonal identities exact",
    )


def suite_gelfand(seed: int = 7) -> list[Check]:
    checks = [criterion_gelfand_layer(seed)]
    rng = _rng(seed, 11)
    alg3 = gelfand.DiagonalAlgebra.of_dimension(3)
    rep = gelfand.orthogonal_representation(alg3, [2.0, 2.0, 5.0])
    checks.append(
        _check(
            "gelfand/orthogonal-representation",
            rep.coefficients == (2.0 + 0j, 5.0 + 0j)
            and rep.supports == ((0, 1), (2,)),
        )
    )
    alg2 = gelfand.DiagonalAlgebra.of_dimension(2)
    rep0 = gelfand.orthogonal_representation(alg2, [0.0, 0.0])
    rep_i = gelfand.orthogonal_representation(alg2, [1.0, 1j])
    checks.append(
        _check(
            "gelfand/zero-and-complex",
            rep0.coefficients == ()
            and set(rep_i.coefficients) == {1.0 + 0j, 1j},
        )
    )
    checks.append(
        _check(
            "gelfand/transform-values",
            gelfand.gelfand_transform(alg3, [2.0, 2.0, 5.0]).tolist()
            == [2.0 + 0j, 2.0 + 0j, 5.0 + 0j],
        )
    )
    checks.append(
        _check(
            "gelfand/characters",
            gelfand.verify_characters(alg3).passed,
        )
    )
    # adjoints map to conjugates; the transform hits every function
    adj_ok = True
    onto_ok = True
    for _ in range(20):
        entries = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        fa = gelfand.gelfand_transform(alg3, entries)
        if not (gelfand.gelfand_transform(alg3, entries.conj()) == fa.conj()).all():
            adj_ok = False
        # any target function on the quasipoints is the transform of its own
        # entry vector
        if not (fa == gelfand.snap_entries(entries)).all():
            onto_ok = False
    checks.append(_check("gelfand/adjoints", adj_ok))
    checks.append(_check("gelfand/onto-functions", onto_ok))
    # a projection transforms to its characteristic function
    proj = gelfand.gelfand_transform(alg3, [1.0, 0.0, 1.0])
    checks.append(
        _check(
            "gelfand/projection-characteristic",
            proj.tolist() == [1.0 + 0j, 0j, 1.0 + 0j],
        )
    )
    # conjugated algebras via the phase-fixed eigenbasis
    diag_ok = True
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = matrix.random_hermitian(n, rng)
        U, entries = gelfand.diagonalize(A)
        if np.abs(U.conj().T @ A @ U - np.diag(entries)).max() > 1e-9:
            diag_ok = False
    checks.append(_check("gelfand/diagonalization", diag_ok))
    return checks


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
    return [
        criterion_spectrum_identity(seed, count=200),
        criterion_reconstruction_round_trip(seed, per_lattice=100),
        criterion_increasing_bijection(seed, instances=1000),
        criterion_distributivity_dichotomy(seed),
        criterion_translation_and_step_approx(seed),
        criterion_ray_layer(seed),
        criterion_gelfand_layer(seed),
        criterion_stone_structure(seed),
    ]


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
