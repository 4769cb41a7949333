import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from stonespec import stone
from stonespec.corpus import boolean_lattice, corpus, mo
from stonespec.errors import LatticeError
from stonespec.lattice import verify_structure
from test_fast_paths import FACTS, product

CORPUS = corpus()
# every corpus lattice the subset scan affords, plus a 12-element product
SMALL = {name: L for name, L in CORPUS.items() if L.n <= stone.BRUTE_FORCE_LIMIT}
SMALL["2xMO2"] = product(boolean_lattice(1), mo(2))


class TestPrincipalFilters:
    def test_b2_filter(self):
        B2 = CORPUS["B2"]
        p = B2.index("p")
        assert stone.principal_filter(B2, p).member_set() == {p, B2.top}

    def test_top_filter_is_singleton(self):
        for L in CORPUS.values():
            assert stone.principal_filter(L, L.top).member_set() == {L.top}

    def test_mo2_filter(self):
        MO2 = CORPUS["MO2"]
        a = MO2.index("a")
        assert stone.principal_filter(MO2, a).member_set() == {a, MO2.top}

    def test_bottom_rejected(self):
        B2 = CORPUS["B2"]
        with pytest.raises(LatticeError):
            stone.principal_filter(B2, B2.bottom)


class TestDualIdealPredicate:
    def test_top_singleton(self):
        for L in CORPUS.values():
            assert stone.is_dual_ideal(L, {L.top})

    def test_meet_closure_failure(self):
        B2 = CORPUS["B2"]
        # p ^ q = 0 would have to be a member, violating the bottom clause
        assert not stone.is_dual_ideal(B2, {B2.index("p"), B2.index("q"), B2.top})

    def test_empty_set(self):
        assert not stone.is_dual_ideal(CORPUS["B2"], set())

    def test_upward_closure_failure(self):
        B2 = CORPUS["B2"]
        assert not stone.is_dual_ideal(B2, {B2.index("p")})


class TestEnumeration:
    def test_counts(self):
        assert len(stone.enumerate_dual_ideals(CORPUS["B2"])) == 3
        assert len(stone.enumerate_dual_ideals(CORPUS["MO2"])) == 5
        assert len(stone.enumerate_dual_ideals(CORPUS["chain-2"])) == 1

    def test_brute_force_agrees(self):
        for name, L in SMALL.items():
            scan = set(stone.brute_force_dual_ideals(L))
            quick = {i.member_set() for i in stone.enumerate_dual_ideals(L)}
            assert scan == quick, name

    def test_every_enumerated_ideal_passes_the_predicate(self):
        for L in CORPUS.values():
            for ideal in stone.enumerate_dual_ideals(L):
                assert stone.is_dual_ideal(L, ideal.member_set())


class TestQuasipoints:
    def test_counts(self):
        assert len(stone.quasipoints(CORPUS["B2"])) == 2
        assert len(stone.quasipoints(CORPUS["MO2"])) == 4
        assert len(stone.quasipoints(CORPUS["2^3"])) == 3

    def test_maximality(self):
        for name, L in CORPUS.items():
            points = {q.member_set() for q in stone.quasipoints(L)}
            ideals = [i.member_set() for i in stone.enumerate_dual_ideals(L)]
            for p in points:
                assert not any(p < other for other in ideals), name
        for name, L in SMALL.items():
            points = {q.member_set() for q in stone.quasipoints(L)}
            assert set(stone.brute_force_quasipoints(L)) == points, name

    def test_enumerations_run_no_subset_scan(self, monkeypatch):
        def scan(L):
            raise AssertionError("subset scan called")

        monkeypatch.setattr(stone, "brute_force_dual_ideals", scan)
        MO2 = CORPUS["MO2"]
        assert len(stone.quasipoints(MO2)) == 4
        assert len(stone.enumerate_dual_ideals(MO2)) == 5

    def test_non_atom_rejected(self):
        B2 = CORPUS["B2"]
        with pytest.raises(LatticeError, match="atom"):
            stone.Quasipoint(B2, B2.top)


class TestBasisSets:
    def test_top_and_bottom(self):
        for L in CORPUS.values():
            assert len(stone.quasipoints_containing(L, L.top)) == len(L.atoms())
            assert stone.quasipoints_containing(L, L.bottom) == []
            assert stone.ideals_containing(L, L.bottom) == []

    def test_mo2_atom_basis(self):
        MO2 = CORPUS["MO2"]
        a = MO2.index("a")
        pts = stone.quasipoints_containing(MO2, a)
        assert [q.generator for q in pts] == [a]

    def test_basis_identities(self):
        for name, L in CORPUS.items():
            rep = stone.verify_basis_identities(L)
            assert rep.passed, (name, rep.failures[:3])

    def test_union_inclusion_strict_somewhere_on_mo2(self):
        rep = stone.verify_basis_identities(CORPUS["MO2"])
        MO2 = CORPUS["MO2"]
        a, b = MO2.index("a"), MO2.index("b")
        assert [a, b] in rep.strict_union_pairs.tolist()


class TestFilterIntersection:
    def test_orthomodular_corpus(self):
        for name, L in CORPUS.items():
            if not verify_structure(L).is_orthomodular:
                continue
            assert stone.verify_principal_intersection(L).passed, name

    def test_benzene_fails_without_atomisticity(self):
        L = CORPUS["benzene-O6"]
        rep = stone.verify_principal_intersection(L)
        assert not rep.passed
        assert L.index("b") in rep.mismatches

    @pytest.mark.parametrize("name", sorted(FACTS))
    def test_matches_member_sets(self, name):
        """The row form against the member sets of the quasipoint objects."""
        L, want = FACTS[name], []
        points = stone.quasipoints(L)
        for p in L.nonzero().tolist():
            through = [q.member_set() for q in points if p in q]
            inter = frozenset.intersection(*through) if through else frozenset()
            if inter != stone.principal_filter(L, p).member_set():
                want.append(p)
        assert stone.verify_principal_intersection(L).mismatches == want

    def test_cube_example(self):
        C3 = CORPUS["2^3"]
        e12 = 3
        through = [
            q.member_set() for q in stone.quasipoints(C3) if e12 in q
        ]
        assert frozenset.intersection(*through) == stone.principal_filter(
            C3, e12
        ).member_set()


class TestClosure:
    def test_b2_basis_closure(self):
        # H_q drops out (q ^ p = 0) but H_1 = {1} stays: 1 ^ p = p != 0,
        # the witness pattern for the chain p < 1
        B2 = CORPUS["B2"]
        p = B2.index("p")
        gens = {i.generator for i in stone.basis_closure(B2, p)}
        assert gens == {p, B2.top}

    def test_chain_witness_in_cube(self):
        C3 = CORPUS["2^3"]
        e1, e12 = 1, 3
        closure_gens = {i.generator for i in stone.basis_closure(C3, e1)}
        basis_gens = {i.generator for i in stone.ideals_containing(C3, e1)}
        assert e12 in closure_gens and e12 not in basis_gens

    def test_fast_path_matches_definition(self):
        for name, L in CORPUS.items():
            for p in L.nonzero():
                fast = {i.generator for i in stone.basis_closure(L, int(p))}
                slow = {
                    i.generator
                    for i in stone.ideal_closure(L, stone.ideals_containing(L, int(p)))
                }
                assert fast == slow, (name, int(p))

    def test_closure_of_full_basis_is_everything(self):
        for L in CORPUS.values():
            full = stone.basis_closure(L, L.top)
            assert len(full) == len(L.nonzero())

    def test_closure_of_empty_set(self):
        assert stone.ideal_closure(CORPUS["B2"], []) == []


class TestDensityAndCovers:
    def test_density_on_corpus(self):
        for name, L in CORPUS.items():
            assert stone.stone_density(L), name

    def test_complement_cover_criterion(self):
        # exhausts the spectrum for every element exactly on the
        # distributive members of the orthomodular corpus
        for name, L in CORPUS.items():
            rep = verify_structure(L)
            if not rep.is_orthomodular:
                continue
            covers = all(stone.complement_covers(L, a) for a in range(L.n))
            assert covers == rep.is_distributive, name

    def test_mo2_atom_fails_cover(self):
        MO2 = CORPUS["MO2"]
        assert not stone.complement_covers(MO2, MO2.index("a"))


class TestFilterAlgebra:
    def test_intersections_of_filter_families_are_principal_on_joins(self):
        # arbitrary subsets, not just pairs
        import itertools

        for name in ("B2", "MO2", "benzene-O6"):
            L = CORPUS[name]
            nz = [int(x) for x in L.nonzero()]
            for r in (2, 3, 4):
                for subset in itertools.combinations(nz, r):
                    inter = frozenset.intersection(
                        *(stone.principal_filter(L, p).member_set() for p in subset)
                    )
                    joined = L.big_join(subset)
                    assert inter == stone.principal_filter(L, joined).member_set()


class TestIdealObjects:
    """DualIdeal and Quasipoint are slotted objects with a hand-written
    constructor; they keep the checks, equality, hashing and immutability of
    the frozen dataclasses they replaced."""

    @pytest.mark.parametrize("name", ["B2", "MO2", "benzene-O6", "MO127", "2^6", "chain4"])
    def test_enumerations_equal_constructed_objects(self, name):
        L = FACTS[name]
        ideals = stone.enumerate_dual_ideals(L)
        assert [i.generator for i in ideals] == L.nonzero().tolist()
        for i in ideals:
            j = stone.DualIdeal(L, i.generator)
            assert type(i) is stone.DualIdeal and type(i.generator) is int
            assert i == j and hash(i) == hash(j) and repr(i) == repr(j)
        points = stone.quasipoints(L)
        assert [q.generator for q in points] == list(L.atoms())
        for q in points:
            r = stone.Quasipoint(L, np.int64(q.generator))
            assert type(q) is stone.Quasipoint and type(r.generator) is int
            assert q == r == stone.DualIdeal(L, q.generator)
            assert hash(q) == hash(r) == hash(stone.DualIdeal(L, q.generator))

    def test_constructors_refuse_as_before(self):
        B2 = CORPUS["B2"]
        for cls in (stone.DualIdeal, stone.Quasipoint):
            with pytest.raises(LatticeError, match="^a dual ideal cannot contain bottom$"):
                cls(B2, B2.bottom)
            for g in (-1, B2.n, np.int64(B2.n)):
                with pytest.raises(IndexError, match=rf"^element index {g} out of range \[0, 4\)$"):
                    cls(B2, g)
        with pytest.raises(LatticeError, match="^'1' is not an atom; its filter is not maximal$"):
            stone.Quasipoint(B2, B2.top)
        assert stone.DualIdeal(B2, B2.top).generator == B2.top

    def test_fields_are_read_only(self):
        MO2 = CORPUS["MO2"]
        q = stone.quasipoints(MO2)[0]
        for field in ("generator", "lattice"):
            with pytest.raises(FrozenInstanceError):
                setattr(q, field, getattr(q, field))
            with pytest.raises(FrozenInstanceError):
                delattr(q, field)
        with pytest.raises(AttributeError):
            q.other = 1
        assert q.generator == 1 and q.lattice is MO2
        c = copy.copy(q)
        assert type(c) is stone.Quasipoint and c == q and c.lattice is MO2
        back = pickle.loads(pickle.dumps(q))
        assert type(back) is stone.Quasipoint and back.generator == q.generator
        assert back.lattice.names == MO2.names
