import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonespec import spectral
from stonespec.corpus import corpus
from stonespec.errors import LatticeError
from stonespec.lattice import verify_structure
from stonespec.spectral import (
    make_pre_spectral_family,
    make_spectral_family,
    mirrored_fn,
    negate,
    observable_fn,
    random_spectral_family,
    restrict,
    spectralize,
    translate,
    value_at_quasipoint,
)
from stonespec.stone import Quasipoint

CORPUS = corpus()


@pytest.fixture
def b2_projection_family():
    B2 = CORPUS["B2"]
    p = B2.index("p")
    return B2, p, B2.index("q"), make_spectral_family(B2, [(0.0, p), (1.0, B2.top)])


class TestConstruction:
    def test_projection_family_valid(self, b2_projection_family):
        _, _, _, E = b2_projection_family
        assert E.k == 2

    def test_constant_family(self):
        for L in CORPUS.values():
            E = make_spectral_family(L, [(2.5, L.top)])
            assert E.k == 1

    def test_flat_values_rejected(self):
        B2 = CORPUS["B2"]
        p = B2.index("p")
        with pytest.raises(LatticeError, match="strictly increase"):
            make_spectral_family(B2, [(0.0, p), (1.0, p)])

    def test_duplicate_thresholds_rejected(self):
        B2 = CORPUS["B2"]
        with pytest.raises(LatticeError, match="duplicate"):
            make_spectral_family(B2, [(0.0, B2.index("p")), (0.0, B2.top)])

    def test_top_required(self):
        B2 = CORPUS["B2"]
        with pytest.raises(LatticeError, match="top"):
            make_spectral_family(B2, [(0.0, B2.index("p"))])

    def test_bottom_value_rejected(self):
        B2 = CORPUS["B2"]
        with pytest.raises(LatticeError, match="bottom"):
            make_spectral_family(B2, [(0.0, B2.bottom), (1.0, B2.top)])

    def test_incomparable_values_rejected(self):
        MO2 = CORPUS["MO2"]
        with pytest.raises(LatticeError, match="strictly increase"):
            make_spectral_family(
                MO2, [(0.0, MO2.index("a")), (1.0, MO2.index("b")), (2.0, MO2.top)]
            )


class TestEvaluation:
    def test_step_semantics(self, b2_projection_family):
        B2, p, _, E = b2_projection_family
        assert E.value_at(-1.0) == B2.bottom
        assert E.value_at(0.0) == p
        assert E.value_at(0.5) == p
        assert E.value_at(1.0) == B2.top
        assert E.value_at(7.0) == B2.top

    def test_left_limits(self, b2_projection_family):
        B2, p, _, E = b2_projection_family
        assert E.value_before(0.0) == B2.bottom
        assert E.value_before(1.0) == p
        assert E.value_before(2.0) == B2.top


class TestSpectralization:
    def test_left_continuous_input(self, b2_projection_family):
        B2, p, _, E = b2_projection_family
        pre = make_pre_spectral_family(B2, [(0.0, p, False), (1.0, B2.top, False)])
        assert spectralize(pre) == E

    def test_idempotence(self):
        rng = np.random.default_rng(5)
        for L in CORPUS.values():
            for _ in range(10):
                E = random_spectral_family(L, rng)
                pre = make_pre_spectral_family(
                    L, [(l, v, True) for l, v in E.jumps()]
                )
                assert spectralize(pre) == E

    def test_flat_steps_collapse(self):
        B2 = CORPUS["B2"]
        p = B2.index("p")
        pre = make_pre_spectral_family(
            B2, [(0.0, p, True), (1.0, p, True), (2.0, B2.top, True)]
        )
        assert spectralize(pre).jumps() == [(0.0, p), (2.0, B2.top)]


class TestObservableTable:
    def test_projection_pattern(self, b2_projection_family):
        B2, p, q, E = b2_projection_family
        f = observable_fn(E)
        assert f.values[p] == 0.0
        assert f.values[q] == 1.0
        assert f.values[B2.top] == 1.0

    def test_constant(self):
        for L in CORPUS.values():
            f = observable_fn(make_spectral_family(L, [(2.5, L.top)]))
            assert all(f.values[p] == 2.5 for p in L.nonzero())

    def test_cube_family(self):
        C3 = CORPUS["2^3"]
        E = make_spectral_family(C3, [(0.0, 1), (1.0, 3), (2.0, 7)])
        f = observable_fn(E)
        assert f.values[1] == 0.0  # first coordinate
        assert f.values[2] == 1.0  # second coordinate
        assert f.values[4] == 2.0  # third coordinate
        assert f.values[6] == 2.0  # second + third

    def test_image(self, b2_projection_family):
        _, _, _, E = b2_projection_family
        f = observable_fn(E)
        assert f.image("quasipoints").tolist() == [0.0, 1.0]
        assert f.image("dual_ideals").tolist() == [0.0, 1.0]

    def test_image_is_jump_set(self):
        rng = np.random.default_rng(11)
        for name, L in CORPUS.items():
            if not verify_structure(L).is_orthomodular:
                continue
            for _ in range(10):
                E = random_spectral_family(L, rng)
                f = observable_fn(E)
                assert f.image("dual_ideals").tolist() == E.thresholds.tolist()
                assert f.image("quasipoints").tolist() == E.thresholds.tolist()

    def test_table_resolves_ideals_through_minimum(self, b2_projection_family):
        B2, p, _, E = b2_projection_family
        f = observable_fn(E)
        from stonespec.stone import principal_filter

        assert f.at_ideal(principal_filter(B2, p)) == 0.0
        assert f.at_element(p) == 0.0
        with pytest.raises(LatticeError):
            f.at_element(B2.bottom)


class TestTranslation:
    def test_shift_values(self, b2_projection_family):
        B2, _, _, E = b2_projection_family
        f3 = observable_fn(translate(E, 3.0))
        assert sorted(set(float(f3.values[p]) for p in B2.nonzero())) == [3.0, 4.0]

    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(1)
        for L in CORPUS.values():
            E = random_spectral_family(L, rng)
            assert translate(E, 0.0) == E

    def test_exactness(self):
        rng = np.random.default_rng(2)
        for L in CORPUS.values():
            for _ in range(20):
                E = random_spectral_family(L, rng)
                a = float(rng.normal(0, 10))
                nz = L.nonzero()
                shifted = observable_fn(translate(E, a)).values[nz]
                direct = a + observable_fn(E).values[nz]
                assert (shifted == direct).all()


class TestNegation:
    def test_projection_example(self, b2_projection_family):
        B2, p, q, E = b2_projection_family
        assert negate(E).jumps() == [(-1.0, q), (0.0, B2.top)]
        # the sign-flipped mirror of the negated family is the
        # characteristic pattern of the complementary basis set
        mf = [float(-observable_fn(negate(E)).values[t]) for t in B2.atoms()]
        assert mf == [0.0, 1.0]

    def test_involution(self):
        rng = np.random.default_rng(3)
        for L in CORPUS.values():
            for _ in range(10):
                E = random_spectral_family(L, rng)
                assert negate(negate(E)) == E

    def test_constant(self):
        for L in CORPUS.values():
            E = make_spectral_family(L, [(2.5, L.top)])
            assert negate(E).jumps() == [(-2.5, L.top)]

    def test_closed_form_left_limit(self):
        rng = np.random.default_rng(4)
        for L in CORPUS.values():
            for _ in range(10):
                E = random_spectral_family(L, rng)
                N = negate(E)
                grid = np.concatenate(
                    [E.thresholds, -E.thresholds, E.thresholds + 0.3, [-100.0, 100.0]]
                )
                for lam in grid:
                    assert N.value_at(float(lam)) == L.complement(
                        E.value_before(-float(lam))
                    )


class TestMirroredTable:
    def test_equals_observable_on_b2(self, b2_projection_family):
        B2, _, _, E = b2_projection_family
        f, g = observable_fn(E), mirrored_fn(E)
        for t in B2.atoms():
            assert f.values[t] == g.values[t]

    def test_identity_with_negation(self):
        rng = np.random.default_rng(6)
        for L in CORPUS.values():
            for _ in range(10):
                E = random_spectral_family(L, rng)
                nz = L.nonzero()
                g = mirrored_fn(E).values[nz]
                h = -observable_fn(negate(E)).values[nz]
                assert (g == h).all()

    def test_mo2_split(self):
        MO2 = CORPUS["MO2"]
        a, b = MO2.index("a"), MO2.index("b")
        E = make_spectral_family(MO2, [(0.0, a), (1.0, MO2.top)])
        f, g = observable_fn(E), mirrored_fn(E)
        assert f.values[b] == 1.0 and g.values[b] == 0.0
        # full mirrored table, spelled out
        expected = {"a": 0.0, "a'": 1.0, "b": 0.0, "b'": 0.0, "1": 0.0}
        got = {MO2.names[p]: float(g.values[p]) for p in MO2.nonzero()}
        assert got == expected

    def test_constant(self):
        for L in CORPUS.values():
            g = mirrored_fn(make_spectral_family(L, [(2.5, L.top)]))
            assert all(g.values[p] == 2.5 for p in L.nonzero())

    def test_mirror_below_observable_at_quasipoints(self):
        rng = np.random.default_rng(7)
        for L in CORPUS.values():
            for _ in range(10):
                E = random_spectral_family(L, rng)
                f, g = observable_fn(E), mirrored_fn(E)
                for t in L.atoms():
                    assert g.values[t] <= f.values[t]


class TestRestriction:
    def test_restrict_to_top_is_identity(self):
        rng = np.random.default_rng(8)
        for L in CORPUS.values():
            E = random_spectral_family(L, rng)
            assert restrict(E, L.top).embedded_jumps() == E.jumps()

    def test_cube_restriction(self):
        C3 = CORPUS["2^3"]
        E = make_spectral_family(C3, [(0.0, 1), (1.0, 3), (2.0, 7)])
        r = restrict(E, 3)
        assert [(l, int(r.embed[v])) for l, v in r.family.jumps()] == [
            (0.0, 1),
            (1.0, 3),
        ]

    def test_projection_family_restricts_to_constant(self, b2_projection_family):
        B2, p, _, E = b2_projection_family
        r = restrict(E, p)
        assert r.family.jumps() == [(0.0, r.family.lattice.top)]
        assert int(r.embed[r.family.lattice.top]) == p

    def test_presheaf_law(self):
        rng = np.random.default_rng(9)
        for name in ("2^3", "2^4", "MO2"):
            L = CORPUS[name]
            for _ in range(10):
                E = random_spectral_family(L, rng)
                b = int(rng.choice([x for x in L.nonzero()]))
                candidates = [int(a) for a in L.downset(b) if a != L.bottom]
                a = int(rng.choice(candidates))
                one = restrict(E, a)
                mid = restrict(E, b)
                a_mid = int(np.flatnonzero(mid.embed == a)[0])
                two = restrict(mid.family, a_mid)
                relabeled = [
                    (l, int(mid.embed[two.embed[v]])) for l, v in two.family.jumps()
                ]
                assert relabeled == one.embedded_jumps()

    def test_quasipoint_compatibility(self):
        rng = np.random.default_rng(10)
        C4 = CORPUS["2^4"]
        for _ in range(10):
            E = random_spectral_family(C4, rng)
            f = observable_fn(E)
            a = int(rng.choice([x for x in C4.nonzero()]))
            r = restrict(E, a)
            for t in C4.atoms():
                if C4.le(t, a):
                    point = Quasipoint(C4, t)
                    assert value_at_quasipoint(r, point) == float(f.values[t])


class TestGermEquivalence:
    def test_identical_families(self):
        C3 = CORPUS["2^3"]
        rng = np.random.default_rng(12)
        E = random_spectral_family(C3, rng)
        for t in C3.atoms():
            assert spectral.equivalent_at(E, E, Quasipoint(C3, t))

    def test_shared_component(self):
        C3 = CORPUS["2^3"]
        E = make_spectral_family(C3, [(0.0, 1), (1.0, 3), (2.0, 7)])
        F = make_spectral_family(C3, [(0.0, 1), (1.5, 5), (2.5, 7)])
        point = Quasipoint(C3, 1)
        assert spectral.equivalent_at(restrict(E, 3), restrict(F, 5), point)
        assert observable_fn(E).values[1] == observable_fn(F).values[1]

    def test_disagreement_everywhere(self):
        C3 = CORPUS["2^3"]
        E = make_spectral_family(C3, [(0.0, 1), (1.0, 3), (2.0, 7)])
        G = make_spectral_family(C3, [(0.25, 2), (0.75, 3), (2.0, 7)])
        assert not spectral.equivalent_at(E, G, Quasipoint(C3, 1))

    def test_point_outside_caps_rejected(self):
        C3 = CORPUS["2^3"]
        E = make_spectral_family(C3, [(0.0, 7)])
        with pytest.raises(LatticeError):
            spectral.equivalent_at(restrict(E, 1), restrict(E, 2), Quasipoint(C3, 4))

    def test_equivalence_forces_equal_values(self):
        C3 = CORPUS["2^3"]
        rng = np.random.default_rng(13)
        pairs = []
        for _ in range(15):
            E = random_spectral_family(C3, rng)
            F = random_spectral_family(C3, rng)
            P = int(rng.integers(1, C3.n))
            Q = int(rng.integers(1, C3.n))
            pairs.append((restrict(E, P), restrict(F, Q)))
            pairs.append((restrict(E, P), restrict(E, Q)))
        rep = spectral.verify_germ_equivalence(C3, pairs)
        assert rep.passed and rep.equivalent_pairs > 0


class TestIntersectionLaw:
    def test_projection_family(self, b2_projection_family):
        B2, p, q, E = b2_projection_family
        f = observable_fn(E)
        # H_p cap H_q = H_1: the value at the intersection is the max
        assert f.values[B2.join(p, q)] == max(f.values[p], f.values[q]) == 1.0
        assert spectral.verify_intersection_law(E).passed

    def test_exhaustive_on_cube(self):
        C3 = CORPUS["2^3"]
        E = make_spectral_family(C3, [(0.0, 1), (1.0, 3), (2.0, 7)])
        rep = spectral.verify_intersection_law(E)
        assert rep.passed and rep.checked == 2**7 - 1

    def test_sampled_on_large_lattice(self):
        C4 = CORPUS["2^4"]
        rng = np.random.default_rng(14)
        E = random_spectral_family(C4, rng)
        rep = spectral.verify_intersection_law(E, max_exhaustive=8, rng=rng)
        assert rep.passed


class TestUpperSemicontinuity:
    def test_corpus_families(self):
        rng = np.random.default_rng(15)
        for L in CORPUS.values():
            for _ in range(5):
                E = random_spectral_family(L, rng)
                assert spectral.verify_upper_semicontinuity(E).passed

    def test_witness_is_family_value(self, b2_projection_family):
        B2, _, q, E = b2_projection_family
        # at the filter of q the value is 1; the family a half-step past it
        # is already the top, whose basis set is everything
        assert E.value_at(1.0 + 0.25) == B2.top


class TestMinimalIdeals:
    def test_projection_family(self, b2_projection_family):
        B2, p, _, E = b2_projection_family
        assert spectral.minimal_ideal(E, 0.0).generator == p
        assert spectral.minimal_ideal(E, 1.0).generator == B2.top

    def test_constant(self):
        for L in CORPUS.values():
            E = make_spectral_family(L, [(2.5, L.top)])
            assert spectral.minimal_ideal(E, 2.5).member_set() == {L.top}

    def test_value_not_attained(self, b2_projection_family):
        _, _, _, E = b2_projection_family
        with pytest.raises(LatticeError, match="not attained"):
            spectral.minimal_ideal(E, 0.5)

    def test_infimum_matches_family(self):
        rng = np.random.default_rng(16)
        for L in CORPUS.values():
            for _ in range(10):
                E = random_spectral_family(L, rng)
                for lam, v in E.jumps():
                    ideal = spectral.minimal_ideal(E, lam)
                    assert L.big_meet(ideal.members().tolist()) == v

    def test_signed_zero_and_nan(self, b2_projection_family):
        _, p, _, E = b2_projection_family
        assert spectral.minimal_ideal(E, -0.0).generator == p
        with pytest.raises(LatticeError, match="not attained"):
            spectral.minimal_ideal(E, float("nan"))

    def test_matches_level_sets_on_the_corpus(self):
        rng = np.random.default_rng(22)
        for L in CORPUS.values():
            for _ in range(10):
                assert_minimal_ideals_match_level_sets(random_spectral_family(L, rng))


def level_set_ideal(E, lam):
    """The minimal ideal at lam by its definition, or None where f never
    takes lam: the intersection of the filters H_p over the level set
    {p != 0 : f(p) = lam}, checked to be the filter of its infimum, which
    must be E(lam) and the join of the level set."""
    L = E.lattice
    f = observable_fn(E)
    gens = [p for p in L.nonzero().tolist() if float(f.values[p]) == float(lam)]
    if not gens:
        return None
    members = np.logical_and.reduce(L.leq[gens], axis=0)
    low = L.big_meet(np.flatnonzero(members).tolist())
    assert (members == L.leq[low]).all()
    assert low == E.value_at(lam) == L.big_join(gens)
    return low


def assert_minimal_ideals_match_level_sets(E):
    """At every threshold and at probes between, below and above them."""
    t = E.thresholds
    probes = [*t.tolist(), *((t[:-1] + t[1:]) / 2).tolist(), t[0] - 1.0, t[-1] + 1.0]
    for lam in probes:
        want = level_set_ideal(E, lam)
        if want is None:
            with pytest.raises(LatticeError, match="not attained"):
                spectral.minimal_ideal(E, lam)
        else:
            assert spectral.minimal_ideal(E, lam).generator == want


@st.composite
def corpus_family(draw):
    name = draw(st.sampled_from(sorted(CORPUS)))
    L = CORPUS[name]
    seed = draw(st.integers(0, 10_000))
    return L, random_spectral_family(L, np.random.default_rng(seed))


@given(corpus_family())
@settings(max_examples=80, deadline=None)
def test_minimal_ideals_match_level_sets(args):
    assert_minimal_ideals_match_level_sets(args[1])


class TestTableProperties:
    @given(corpus_family())
    @settings(max_examples=60, deadline=None)
    def test_antitone_and_min_formula(self, args):
        L, E = args
        f = observable_fn(E)
        nz = [int(x) for x in L.nonzero()]
        for g in nz:
            assert float(f.values[g]) == float(np.min(f.values[L.upset(g)]))
        for a in nz:
            for b in nz:
                if L.le(a, b):
                    assert f.values[a] <= f.values[b]

    @given(corpus_family())
    @settings(max_examples=60, deadline=None)
    def test_filter_value_is_sup_over_quasipoints(self, args):
        L, E = args
        if not verify_structure(L).is_orthomodular:
            return
        f = observable_fn(E)
        for g in L.nonzero():
            under = [t for t in L.atoms() if L.le(t, int(g))]
            assert float(f.values[g]) == max(float(f.values[t]) for t in under)

    def test_tables_separate_families(self):
        rng = np.random.default_rng(17)
        for L in CORPUS.values():
            for _ in range(15):
                E = random_spectral_family(L, rng)
                F = random_spectral_family(L, rng)
                assert (observable_fn(E) == observable_fn(F)) == (E == F)
