import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonespec import recon
from stonespec.corpus import corpus
from stonespec.errors import NotObservableError
from stonespec.lattice import verify_structure
from stonespec.spectral import (
    ObservableTable,
    make_spectral_family,
    mirrored_fn,
    observable_fn,
    random_spectral_family,
)

CORPUS = corpus()


def table(L, mapping):
    vals = np.full(L.n, np.nan)
    for name, v in mapping.items():
        vals[L.index(name)] = v
    return ObservableTable(L, vals)


@pytest.fixture
def b2_increasing():
    B2 = CORPUS["B2"]
    return B2, table(B2, {"p": 0.0, "q": 1.0, "1": 1.0})


@pytest.fixture
def mo2_characteristic():
    MO2 = CORPUS["MO2"]
    return MO2, table(MO2, {"a": 1.0, "a'": 0.0, "b": 0.0, "b'": 0.0, "1": 1.0})


class TestCompletelyIncreasing:
    def test_b2_example(self, b2_increasing):
        B2, r = b2_increasing
        ok, witness = recon.is_completely_increasing(B2, r)
        assert ok and witness is None

    def test_mo2_characteristic_fails(self, mo2_characteristic):
        MO2, r = mo2_characteristic
        ok, witness = recon.is_completely_increasing(MO2, r)
        assert not ok
        a, b = witness
        # the witness pair joins to the top but both values sit below r(top)
        assert MO2.join(a, b) == MO2.top
        assert max(r.values[a], r.values[b]) < r.values[MO2.top]

    def test_constant(self):
        for L in CORPUS.values():
            r = ObservableTable(L, np.full(L.n, 3.25))
            ok, _ = recon.is_completely_increasing(L, r)
            assert ok

    def test_pairwise_equals_family_law(self):
        rng = np.random.default_rng(21)
        for name, L in CORPUS.items():
            if L.n > 12:
                continue
            tables = [recon.random_increasing_table(L, rng) for _ in range(5)]
            for _ in range(10):
                vals = np.full(L.n, np.nan)
                nz = L.nonzero()
                vals[nz] = np.round(rng.normal(0, 1, len(nz)), 1)
                tables.append(ObservableTable(L, vals))
            for t in tables:
                assert (
                    recon.is_completely_increasing(L, t)[0]
                    == recon.family_law_holds(L, t)
                ), name


class TestCorrespondence:
    def test_b2_values(self, b2_increasing):
        B2, r = b2_increasing
        f = recon.f_from_r(B2, r)
        assert f.values[B2.index("p")] == 0.0
        assert f.values[B2.index("q")] == 1.0
        assert f.values[B2.top] == 1.0

    def test_rejects_non_increasing(self, mo2_characteristic):
        MO2, r = mo2_characteristic
        with pytest.raises(NotObservableError):
            recon.f_from_r(MO2, r)

    def test_round_trips(self):
        rng = np.random.default_rng(22)
        for L in CORPUS.values():
            for _ in range(25):
                r = recon.random_increasing_table(L, rng)
                f = recon.f_from_r(L, r)
                assert recon.r_from_f(f) == r
                assert recon.f_from_r(L, recon.r_from_f(f)) == f

    def test_constant_fixed_point(self):
        for L in CORPUS.values():
            r = ObservableTable(L, np.full(L.n, 2.0))
            assert recon.f_from_r(L, r) == r

    def test_matches_family_route(self):
        # the table of a diagonal-style three-step family agrees with the
        # increasing-function extension built from the same data
        C3 = CORPUS["2^3"]
        E = make_spectral_family(C3, [(0.0, 1), (1.0, 3), (2.0, 7)])
        f = observable_fn(E)
        assert recon.f_from_r(C3, recon.r_from_f(f)) == f


class TestAbstractObservable:
    def test_family_tables_qualify(self):
        rng = np.random.default_rng(23)
        for L in CORPUS.values():
            for _ in range(10):
                f = observable_fn(random_spectral_family(L, rng))
                ok, _ = recon.is_abstract_observable(L, f)
                assert ok

    def test_sup_extension_of_characteristic_fails(self, mo2_characteristic):
        MO2, _ = mo2_characteristic
        a = MO2.index("a")
        data = {t: 1.0 if t == a else 0.0 for t in MO2.atoms()}
        vals = np.full(MO2.n, np.nan)
        for p in MO2.nonzero():
            under = [t for t in MO2.atoms() if MO2.le(t, int(p))]
            vals[p] = max(data[t] for t in under)
        ok, witness = recon.is_abstract_observable(MO2, ObservableTable(MO2, vals))
        assert not ok and witness[0] == "intersection"

    def test_constant_qualifies(self):
        L = CORPUS["MO3"]
        ok, _ = recon.is_abstract_observable(L, ObservableTable(L, np.full(L.n, 1.0)))
        assert ok


class TestReconstruction:
    def test_b2_example(self, b2_increasing):
        B2, r = b2_increasing
        E = recon.reconstruct(B2, r)
        assert E.jumps() == [(0.0, B2.index("p")), (1.0, B2.top)]

    def test_constant(self):
        for L in CORPUS.values():
            f = ObservableTable(L, np.full(L.n, 2.5))
            assert recon.reconstruct(L, f).jumps() == [(2.5, L.top)]

    def test_round_trip_families(self):
        rng = np.random.default_rng(24)
        for name, L in CORPUS.items():
            for _ in range(25):
                E = random_spectral_family(L, rng)
                f = observable_fn(E)
                back = recon.reconstruct(L, f)
                assert back == E, name
                assert observable_fn(back) == f

    def test_bit_exact_thresholds(self):
        C3 = CORPUS["2^3"]
        thr = [0.1 + 0.2, np.nextafter(0.5, 1.0), 1e300]
        E = make_spectral_family(C3, list(zip(thr, [1, 3, 7])))
        back = recon.reconstruct(C3, observable_fn(E))
        assert back.thresholds.tolist() == thr

    def test_rejects_bad_tables(self, mo2_characteristic):
        MO2, r = mo2_characteristic
        with pytest.raises(NotObservableError):
            recon.reconstruct(MO2, r)

    def test_pipeline_steps(self):
        rng = np.random.default_rng(25)
        for L in CORPUS.values():
            for _ in range(5):
                f = recon.random_increasing_table(L, rng)
                assert recon.verify_reconstruction_steps(L, f).passed


class TestQuasipointData:
    def test_distributive_lattices_realize_everything(self):
        for name in ("chain-2", "B2", "2^3"):
            L = CORPUS[name]
            atoms = list(L.atoms())
            for combo in itertools.product((0.0, 0.5, 1.0), repeat=len(atoms)):
                family, witness = recon.observable_from_quasipoint_data(
                    L, dict(zip(atoms, combo))
                )
                assert witness is None
                f = observable_fn(family)
                for t, v in zip(atoms, combo):
                    assert float(f.values[t]) == v

    def test_mo2_characteristic_unrealizable(self):
        MO2 = CORPUS["MO2"]
        a = MO2.index("a")
        data = {t: 1.0 if t == a else 0.0 for t in MO2.atoms()}
        family, witness = recon.observable_from_quasipoint_data(MO2, data)
        assert family is None
        assert MO2.join(*witness) == MO2.top

    def test_constant_data(self):
        for L in CORPUS.values():
            family, _ = recon.observable_from_quasipoint_data(
                L, {t: 1.5 for t in L.atoms()}
            )
            assert family.jumps() == [(1.5, L.top)]

    def test_decides_once(self, monkeypatch):
        """One sublevel pass a call, and a witness search only where it finds no
        family; families and witnesses are those of is_completely_increasing
        followed by reconstruct."""
        cases = []
        for L in CORPUS.values():
            atoms = list(L.atoms())
            for combo in itertools.product((0.0, 1.0, -0.0), repeat=min(len(atoms), 4)):
                data = dict(zip(atoms, itertools.cycle(combo)))
                r = ObservableTable(L, recon._atom_sup(L, data))
                ok, witness = recon.is_completely_increasing(L, r)
                cases.append((L, data, recon.reconstruct(L, r) if ok else None, witness))
        calls = []
        for name in ("_sublevel_family", "_max_law_witness"):
            fn = getattr(recon, name)
            monkeypatch.setattr(recon, name,
                                lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
        for L, data, want, want_witness in cases:
            calls.clear()
            family, witness = recon.observable_from_quasipoint_data(L, data)
            assert calls == ["_sublevel_family"] + ["_max_law_witness"] * (want is None)
            assert witness == want_witness
            assert (family is None) == (want is None)
            if family is not None:
                assert family.jumps() == want.jumps()
                assert [str(x) for x in family.thresholds] == [str(x) for x in want.thresholds]

    def test_requires_total_data(self):
        B2 = CORPUS["B2"]
        with pytest.raises(Exception):
            recon.observable_from_quasipoint_data(B2, {B2.index("p"): 1.0})


class TestSublevelIdeals:
    def test_b2_level_zero(self, b2_increasing):
        B2, r = b2_increasing
        rep = recon.verify_sublevel_ideals(B2, r)
        assert rep.passed
        assert rep.proper_levels == [0.0]
        assert rep.improper_levels == [1.0]

    def test_mo2_failure_names_the_join(self, mo2_characteristic):
        MO2, _ = mo2_characteristic
        # the increasing-but-not-completely-increasing sup extension
        vals = np.full(MO2.n, 0.0)
        vals[MO2.bottom] = np.nan
        vals[MO2.index("a")] = 1.0
        vals[MO2.top] = 1.0
        rep = recon.verify_sublevel_ideals(MO2, ObservableTable(MO2, vals))
        assert not rep.passed
        lam, kind, p, q = rep.failures[0]
        assert lam == 0.0 and kind == "join-closed"
        assert MO2.join(p, q) == MO2.top

    def test_random_increasing_tables_pass(self):
        rng = np.random.default_rng(26)
        for L in CORPUS.values():
            for _ in range(5):
                r = recon.random_increasing_table(L, rng)
                assert recon.verify_sublevel_ideals(L, r).passed


class TestMirrorSymmetry:
    @pytest.mark.parametrize("name", ["chain-2", "B2", "2^3", "2^4"])
    def test_distributive_side(self, name):
        verdict = recon.mirror_symmetry_test(CORPUS[name])
        assert verdict.symmetric

    @pytest.mark.parametrize("name", ["MO2", "MO3"])
    def test_non_distributive_side(self, name):
        L = CORPUS[name]
        verdict = recon.mirror_symmetry_test(L)
        assert not verdict.symmetric
        assert verdict.witness_family is not None
        # the witness family's mirrored restriction is realized by no family
        g = mirrored_fn(verdict.witness_family)
        data = {t: float(g.values[t]) for t in L.atoms()}
        family, _ = recon.observable_from_quasipoint_data(L, data)
        assert family is None

    def test_matches_structure_verdict(self):
        for name, L in CORPUS.items():
            rep = verify_structure(L)
            if not rep.is_orthomodular:
                continue
            verdict = recon.mirror_symmetry_test(L)
            assert verdict.symmetric == rep.is_distributive


@st.composite
def increasing_table(draw):
    name = draw(st.sampled_from(sorted(CORPUS)))
    L = CORPUS[name]
    seed = draw(st.integers(0, 10_000))
    return L, recon.random_increasing_table(L, np.random.default_rng(seed))


class TestProperties:
    @given(increasing_table())
    @settings(max_examples=60, deadline=None)
    def test_reconstruct_then_observe_is_identity(self, args):
        L, r = args
        f = recon.f_from_r(L, r)
        assert observable_fn(recon.reconstruct(L, f)) == f

    @given(increasing_table())
    @settings(max_examples=60, deadline=None)
    def test_image_is_preserved(self, args):
        L, r = args
        E = recon.reconstruct(L, recon.f_from_r(L, r))
        nz = L.nonzero()
        assert np.unique(r.values[nz]).tolist() == E.thresholds.tolist()
