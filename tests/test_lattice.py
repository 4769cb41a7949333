import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stonespec
from stonespec import _kernels, lattice
from stonespec.corpus import benzene, boolean_lattice, chain2, corpus, mo
from stonespec.errors import LatticeError
from stonespec.lattice import (
    FiniteOML,
    generated_sublattice,
    inspect_order,
    principal_ideal,
    sublattice_from_members,
    verify_structure,
)

CORPUS = corpus()


def bowtie_order():
    """0 < a, b < c, d < 1: the pair (a, b) has two minimal upper bounds."""
    n = 6
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, 5] = True
    for lo in (1, 2):
        for hi in (3, 4):
            leq[lo, hi] = True
    return leq


class TestConstruction:
    def test_rejects_cycles(self):
        leq = np.array([[1, 1], [1, 1]], dtype=bool)
        with pytest.raises(LatticeError, match="antisymmetric"):
            FiniteOML(["x", "y"], leq, [1, 0])

    def test_rejects_missing_transitivity(self):
        leq = np.eye(3, dtype=bool)
        leq[0, 1] = leq[1, 2] = True  # 0<1<2 but 0<2 missing
        with pytest.raises(LatticeError, match="transitive"):
            FiniteOML(["x", "y", "z"], leq, [2, 1, 0])

    def test_rejects_non_unique_bounds(self):
        leq = np.eye(2, dtype=bool)  # antichain: two bottoms
        with pytest.raises(LatticeError, match="bottom"):
            FiniteOML(["x", "y"], leq, [1, 0])

    def test_rejects_missing_joins(self):
        with pytest.raises(LatticeError, match="no unique (meet|join)"):
            FiniteOML(list("0abcd1"), bowtie_order(), [5, 4, 3, 2, 1, 0])

    def test_rejects_bad_ortho(self):
        L = CORPUS["B2"]
        with pytest.raises(LatticeError, match="permutation"):
            FiniteOML(L.names, L.leq, [0, 0, 0, 0])

    def test_rejects_duplicate_names(self):
        L = CORPUS["B2"]
        with pytest.raises(LatticeError, match="unique"):
            FiniteOML(["x", "x", "y", "z"], L.leq, L.ortho)

    def test_trivial_lattice_rejected(self):
        with pytest.raises(LatticeError, match="distinct bottom and top"):
            FiniteOML(["x"], np.ones((1, 1), dtype=bool), [0])

    def test_element_cap(self, monkeypatch):
        """With the cap cut to the tables of 4 elements, B2 builds and 5 names
        are refused before the order is read (None is not a matrix)."""
        monkeypatch.setattr(lattice, "LATTICE_BYTES_CAP", 16 * lattice.LATTICE_PAIR_BYTES)
        L = CORPUS["B2"]
        assert FiniteOML(L.names, L.leq, L.ortho).n == 4
        with pytest.raises(LatticeError, match="^5 elements need about .* GiB .* past the cap"):
            FiniteOML(list("0abc1"), None, [4, 3, 2, 1, 0])

    def test_cap_message_rounds_as_float_formatting(self):
        """The exact GiB figure reads as formatting the float quotient does,
        wherever that quotient is exact (16 n^2 < 2^53)."""
        sizes = [*range(8193, 8400), *np.random.default_rng(0).integers(8193, 2**24, 2000)]
        for n in map(int, sizes):
            with pytest.raises(LatticeError) as info:
                lattice._check_table_budget(n)
            assert str(info.value) == (
                f"{n} elements need about {16 * n * n / 2**30:.2f} GiB for the n^2 tables, "
                "past the cap of 1 GiB"
            )
        lattice._check_table_budget(8192)


class TestBounds:
    def test_meet_of_complements_is_bottom(self):
        B2 = CORPUS["B2"]
        assert B2.meet(B2.index("p"), B2.index("q")) == B2.bottom

    def test_meet_with_top_is_identity(self):
        for L in CORPUS.values():
            for a in range(L.n):
                assert L.meet(a, L.top) == a
                assert L.join(a, L.bottom) == a

    def test_mo2_atoms_meet_to_bottom(self):
        MO2 = CORPUS["MO2"]
        a, b = MO2.index("a"), MO2.index("b")
        assert MO2.meet(a, b) == MO2.bottom
        assert MO2.join(a, b) == MO2.top

    def test_empty_bounds(self):
        for L in CORPUS.values():
            assert L.big_meet([]) == L.top
            assert L.big_join([]) == L.bottom

    def test_big_meet_example(self):
        MO2 = CORPUS["MO2"]
        picks = [MO2.index("a"), MO2.index("b"), MO2.index("b'")]
        assert MO2.big_meet(picks) == MO2.bottom
        B2 = CORPUS["B2"]
        assert B2.big_join([B2.index("p"), B2.index("q")]) == B2.top

    def test_index_validation(self):
        L = CORPUS["B2"]
        with pytest.raises(IndexError):
            L.meet(0, 99)


@st.composite
def lattice_and_elements(draw, count=2):
    name = draw(st.sampled_from(sorted(CORPUS)))
    L = CORPUS[name]
    elems = [draw(st.integers(0, L.n - 1)) for _ in range(count)]
    return (L, *elems)


class TestLaws:
    @given(lattice_and_elements(count=2))
    @settings(max_examples=200, deadline=None)
    def test_meet_join_universal(self, args):
        L, a, b = args
        m, j = L.meet(a, b), L.join(a, b)
        assert L.le(m, a) and L.le(m, b)
        assert L.le(a, j) and L.le(b, j)
        for c in range(L.n):
            if L.le(c, a) and L.le(c, b):
                assert L.le(c, m)
            if L.le(a, c) and L.le(b, c):
                assert L.le(j, c)

    @given(lattice_and_elements(count=2))
    @settings(max_examples=200, deadline=None)
    def test_de_morgan(self, args):
        L, a, b = args
        assert L.complement(L.join(a, b)) == L.meet(L.complement(a), L.complement(b))

    @given(lattice_and_elements(count=1))
    @settings(max_examples=100, deadline=None)
    def test_complement_involution(self, args):
        L, a = args
        assert L.complement(L.complement(a)) == a


class TestVerdicts:
    @pytest.mark.parametrize("name", ["chain-2", "B2", "2^3", "2^4"])
    def test_boolean_corpus(self, name):
        rep = verify_structure(CORPUS[name])
        assert rep.is_lattice and rep.is_ortho_complemented
        assert rep.is_orthomodular and rep.is_distributive
        assert rep.is_boolean and rep.is_atomistic
        assert rep.is_orthomodular_lattice

    @pytest.mark.parametrize("name", ["MO2", "MO3"])
    def test_mo_corpus(self, name):
        L = CORPUS[name]
        rep = verify_structure(L)
        assert rep.is_orthomodular and not rep.is_distributive
        a, b, c = rep.witnesses["is_distributive"]
        lhs = L.meet(a, L.join(b, c))
        rhs = L.join(L.meet(a, b), L.meet(a, c))
        assert lhs != rhs

    def test_mo2_distributivity_failure_shape(self):
        # one concrete instance: a v (b ^ b') = a while (a v b) ^ (a v b') = 1
        L = CORPUS["MO2"]
        a, b, bp = L.index("a"), L.index("b"), L.index("b'")
        assert L.join(a, L.meet(b, bp)) == a
        assert L.meet(L.join(a, b), L.join(a, bp)) == L.top

    def test_benzene(self):
        L = CORPUS["benzene-O6"]
        rep = verify_structure(L)
        assert rep.is_ortho_complemented and not rep.is_orthomodular
        a, b = rep.witnesses["is_orthomodular"]
        assert L.le(a, b)
        assert L.join(a, L.meet(b, L.complement(a))) != b
        # the canonical witness: a <= b with a v (b ^ a') = a
        ia, ib = L.index("a"), L.index("b")
        assert L.join(ia, L.meet(ib, L.complement(ia))) == ia
        assert not rep.is_orthomodular_lattice
        assert not rep.is_atomistic

    def test_inspect_order_reports_malformation(self):
        leq = np.array([[1, 1], [1, 1]], dtype=bool)
        rep, L = inspect_order(["x", "y"], leq, [1, 0])
        assert L is None
        assert rep.is_lattice is False
        assert "antisymmetric" in rep.order_problem
        assert rep.is_distributive is None

    def test_inspect_order_accepts_lattice(self):
        L0 = CORPUS["MO2"]
        rep, L = inspect_order(L0.names, L0.leq, L0.ortho)
        assert L is not None and rep.is_orthomodular


class TestAtoms:
    def test_corpus_atoms(self):
        assert {CORPUS["B2"].names[a] for a in CORPUS["B2"].atoms()} == {"p", "q"}
        assert {CORPUS["MO2"].names[a] for a in CORPUS["MO2"].atoms()} == {
            "a", "a'", "b", "b'",
        }
        assert CORPUS["chain-2"].atoms() == (CORPUS["chain-2"].top,)

    def test_every_nonzero_dominates_an_atom(self):
        for L in CORPUS.values():
            for p in L.nonzero():
                assert any(L.le(t, int(p)) for t in L.atoms())

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_is_atom_and_nonzero_match_their_definitions(self, name):
        """is_atom reads the down-set sizes: the same answer as membership in
        atoms(), False out of range; atom_index() is atoms() as an array and
        nonzero() every index but bottom, and neither shared array can be
        written."""
        L = CORPUS[name]
        atoms = set(L.atoms())
        assert [L.is_atom(a) for a in range(-2, L.n + 2)] == [
            a in atoms for a in range(-2, L.n + 2)]
        assert (L.downset_sizes() == L.leq.sum(axis=0)).all()
        assert L.nonzero().tolist() == [i for i in range(L.n) if i != L.bottom]
        assert L.atom_index().tolist() == list(L.atoms())
        for index in (L.nonzero(), L.atom_index()):
            with pytest.raises(ValueError):
                index[0] = L.bottom


class TestSublattices:
    def test_single_generator_closes_b2(self):
        B2 = CORPUS["B2"]
        sub, embed = generated_sublattice(B2, [B2.index("p")])
        assert sub.n == 4
        assert sorted(embed.tolist()) == [0, 1, 2, 3]

    def test_two_atoms_close_mo2(self):
        MO2 = CORPUS["MO2"]
        sub, _ = generated_sublattice(MO2, [MO2.index("a"), MO2.index("b")])
        assert sub.n == 6

    def test_diagonal_atoms_close_cube(self):
        C3 = CORPUS["2^3"]
        sub, embed = generated_sublattice(C3, [1, 2, 4])
        assert sub.n == 8
        assert verify_structure(sub).is_boolean

    def test_size_bound(self):
        C4 = CORPUS["2^4"]
        with pytest.raises(LatticeError, match="bound"):
            generated_sublattice(C4, list(range(C4.n)), max_size=4)

    def test_embedding_preserves_order(self):
        C4 = CORPUS["2^4"]
        sub, embed = generated_sublattice(C4, [1, 2, 4, 8])
        for i in range(sub.n):
            for j in range(sub.n):
                assert sub.le(i, j) == C4.le(int(embed[i]), int(embed[j]))

    def test_principal_ideal(self):
        C3 = CORPUS["2^3"]
        sub, embed = principal_ideal(C3, 3)
        assert sub.n == 4
        assert int(embed[sub.top]) == 3
        rep = verify_structure(sub)
        assert rep.is_boolean

    def test_member_set_not_closed_under_join(self):
        """{0, e1, e2, 1} in 2^3 with a valid complement map lacks e1 v e2;
        the gather through the inverse embedding names the pair instead of
        raising a bare KeyError."""
        C3 = CORPUS["2^3"]
        e1, e2 = C3.index("e1"), C3.index("e2")
        ortho_map = {C3.bottom: C3.top, C3.top: C3.bottom, e1: e2, e2: e1}
        with pytest.raises(LatticeError, match="^join of 'e1' and 'e2' leaves the member set$"):
            sublattice_from_members(C3, ortho_map, ortho_map)

    def test_principal_ideal_of_bottom_rejected(self):
        with pytest.raises(LatticeError):
            principal_ideal(CORPUS["B2"], CORPUS["B2"].bottom)


class TestKernels:
    def test_missing_bound_detected(self):
        *_, status, a, b = _kernels.bound_tables(bowtie_order())
        assert status != _kernels.STATUS_OK
        assert 0 <= a < 6 and 0 <= b < 6

    def test_random_relabelings_keep_verdicts(self):
        rng = np.random.default_rng(3)
        for name, L in CORPUS.items():
            base = verify_structure(L)
            for _ in range(3):
                perm = rng.permutation(L.n)
                inv = np.empty_like(perm)
                inv[perm] = np.arange(L.n)
                L2 = FiniteOML(
                    [L.names[int(inv[i])] for i in range(L.n)],
                    L.leq[np.ix_(inv, inv)],
                    perm[L.ortho[inv]],
                )
                other = verify_structure(L2)
                for key in (
                    "is_ortho_complemented",
                    "is_orthomodular",
                    "is_distributive",
                    "is_boolean",
                    "is_atomistic",
                ):
                    assert getattr(base, key) == getattr(other, key), (name, key)


class TestCorpusBuilders:
    def test_chain_is_two_element_boolean(self):
        L = chain2()
        assert L.n == 2 and L.names == ("0", "1")

    def test_boolean_tables_match_generic_search(self):
        for m in (1, 2, 3, 4):
            L = boolean_lattice(m)
            meet, join, status, *_ = _kernels.bound_tables(L.leq)
            assert status == _kernels.STATUS_OK
            assert (meet == L.meet_table).all()
            assert (join == L.join_table).all()

    @pytest.mark.parametrize("m", [14, 16, 17, 64, 2000])
    def test_boolean_past_the_cap_is_refused_unbuilt(self, m):
        """2^m is refused from m = 14, where a file of 2^m elements is, with a
        finite message and nothing of size 2^m built."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="past the cap of 1 GiB$") as info:
                boolean_lattice(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value).startswith(f"{1 << m} elements need about ")
        assert "inf" not in str(info.value)
        assert peak < 1 << 20

    def test_mo_sizes(self):
        assert mo(2).n == 6 and mo(3).n == 8

    def test_benzene_shape(self):
        L = benzene()
        assert L.n == 6
        assert L.le(L.index("a"), L.index("b"))
        assert L.le(L.index("b'"), L.index("a'"))


TABLES = {"leq", "meet_table", "join_table", "ortho"}
ABOVE_THE_TABLES = ("spectral", "stone", "recon", "verify", "gelfand", "matrix", "cli")


def test_only_the_lattice_layer_reads_the_tables():
    """The modules above the lattice reach the order only through FiniteOML's
    methods: none of them reads an attribute named like a table (only
    lattice, _kernels, io and corpus know the table format)."""
    src = Path(stonespec.__file__).parent
    reads = [
        f"{mod}.py:{node.lineno} .{node.attr}"
        for mod in ABOVE_THE_TABLES
        for node in ast.walk(ast.parse((src / f"{mod}.py").read_text()))
        if isinstance(node, ast.Attribute) and node.attr in TABLES
    ]
    assert reads == []
