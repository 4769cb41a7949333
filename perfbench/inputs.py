"""Seeded inputs for the workloads, with the closed forms their checks use.

Lattices are products 2^m x K of a Boolean algebra with a small factor K
(a single point, MOk or the benzene hexagon O6).  Their order, complement,
atoms and structural verdicts are known in closed form, so the benchmark
checks the library against facts it derives itself rather than against
the library's own output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Factor:
    """A small lattice K with its order, complement and covering pairs."""

    label: str
    names: tuple[str, ...]
    leq: np.ndarray
    ortho: np.ndarray
    covers: tuple[tuple[int, int], ...]
    atoms: tuple[int, ...]
    distributive: bool
    orthomodular: bool
    atomistic: bool

    @property
    def k(self) -> int:
        return len(self.names)


def point() -> Factor:
    """The one-element factor: 2^m x point is the Boolean algebra 2^m."""
    return Factor("", ("",), np.ones((1, 1), bool), np.zeros(1, np.int64), (), (),
                  True, True, True)


def mo_factor(pairs: int) -> Factor:
    """MOk: bottom, top and k complementary atom pairs."""
    names = ["0"]
    for i in range(pairs):
        names += [f"a{i + 1}", f"a{i + 1}'"]
    names.append("1")
    k = len(names)
    leq = np.eye(k, dtype=bool)
    leq[0, :] = True
    leq[:, k - 1] = True
    ortho = np.arange(k)
    ortho[0], ortho[k - 1] = k - 1, 0
    ortho[1:k - 1:2], ortho[2:k - 1:2] = np.arange(2, k - 1, 2), np.arange(1, k - 1, 2)
    atoms = tuple(range(1, k - 1))
    covers = tuple((0, a) for a in atoms) + tuple((a, k - 1) for a in atoms)
    return Factor(f"MO{pairs}", tuple(names), leq, ortho, covers, atoms,
                  pairs < 2, True, True)


def o6_factor() -> Factor:
    """Benzene hexagon 0 < a < b < 1, 0 < b' < a' < 1: not orthomodular."""
    names = ("0", "a", "b", "b'", "a'", "1")
    covers = ((0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5))
    leq = np.eye(6, dtype=bool)
    for i, j in covers:
        leq[i, j] = True
    leq[0, :] = True
    leq[:, 5] = True
    leq[1, 2] = leq[3, 4] = True
    return Factor("O6", names, leq, np.array([5, 4, 3, 2, 1, 0]), covers, (1, 3),
                  False, False, False)


class ProductLattice:
    """2^m x K with element index s * k + x for bitmask s and factor index x."""

    def __init__(self, label: str, m: int, factor: Factor):
        self.label, self.m, self.factor = label, m, factor
        k = factor.k
        self.n = (1 << m) * k
        idx = np.arange(self.n)
        self.S, self.X = idx // k, idx % k
        full = (1 << m) - 1
        self.leq = ((self.S[:, None] & ~self.S[None, :]) == 0) & factor.leq[
            self.X[:, None], self.X[None, :]
        ]
        self.ortho = (full ^ self.S) * k + factor.ortho[self.X]
        self.bottom = int(np.flatnonzero(self.leq.all(axis=1))[0])
        self.top = int(np.flatnonzero(self.leq.all(axis=0))[0])
        self.atoms = tuple(sorted(
            [(1 << i) * k + int(np.flatnonzero(factor.leq.all(axis=1))[0]) for i in range(m)]
            + list(factor.atoms)
        ))

    @property
    def distributive(self) -> bool:
        return self.factor.distributive

    @property
    def orthomodular(self) -> bool:
        return self.factor.orthomodular

    @property
    def atomistic(self) -> bool:
        return self.factor.atomistic

    def names(self) -> list[str]:
        out = []
        for s, x in zip(self.S.tolist(), self.X.tolist()):
            bits = "+".join(f"e{i + 1}" for i in range(self.m) if s >> i & 1) or "0"
            out.append(bits if self.factor.k == 1 else f"{bits}|{self.factor.names[x]}")
        return out

    def covers(self) -> list[list[int]]:
        """Covering pairs only: loading a file must apply the closure."""
        k = self.factor.k
        out = []
        for s in range(1 << self.m):
            for x in range(k):
                for i in range(self.m):
                    if not s >> i & 1:
                        out.append([s * k + x, (s | 1 << i) * k + x])
            for x, y in self.factor.covers:
                out.append([s * k + x, s * k + y])
        return out

    def write(self, path: Path) -> None:
        payload = {"elements": self.names(), "leq": self.covers(),
                   "ortho": [int(v) for v in self.ortho]}
        path.write_text(json.dumps(payload))

    def meet(self, a: int, b: int) -> int:
        """The common lower bound with the largest down-set."""
        cand = np.flatnonzero(self.leq[:, a] & self.leq[:, b])
        return int(cand[np.argmax(self.leq[:, cand].sum(axis=0))])

    def join(self, a: int, b: int) -> int:
        """The common upper bound with the largest up-set."""
        cand = np.flatnonzero(self.leq[a] & self.leq[b])
        return int(cand[np.argmax(self.leq[cand].sum(axis=1))])

    def random_family(self, rng: np.random.Generator, max_jumps: int = 6):
        """Random strictly increasing chain up to top, with distinct thresholds."""
        chain = [self.top]
        while len(chain) < max_jumps:
            below = np.flatnonzero(self.leq[:, chain[-1]])
            below = below[(below != chain[-1]) & (below != self.bottom)]
            if below.size == 0 or rng.random() < 0.3:
                break
            chain.append(int(rng.choice(below)))
        chain.reverse()
        thr = np.sort(rng.normal(0.0, 3.0, size=len(chain)))
        return [(float(t), v) for t, v in zip(thr, chain)]

    def observable_table(self, jumps) -> np.ndarray:
        """f(p) = least threshold whose value dominates p; NaN at bottom."""
        thr = np.array([t for t, _ in jumps])
        vals = thr[np.argmax(self.leq[:, [v for _, v in jumps]], axis=1)]
        vals[self.bottom] = np.nan
        return vals

    def mirrored_table(self, jumps) -> np.ndarray:
        """g(p) = first threshold whose complemented value stops dominating p."""
        thr = np.array([t for t, _ in jumps])
        comp = self.ortho[[v for _, v in jumps]]
        vals = thr[np.argmax(~self.leq[:, comp], axis=1)]
        vals[self.bottom] = np.nan
        return vals

    def distributivity_fails(self, a: int, b: int, c: int) -> bool:
        return self.meet(a, self.join(b, c)) != self.join(self.meet(a, b), self.meet(a, c))

    def orthomodularity_fails(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b]) and self.join(a, self.meet(b, int(self.ortho[a]))) != b

    def atomistic_fails(self, p: int) -> bool:
        out = self.bottom
        for t in self.atoms:
            if self.leq[t, p]:
                out = self.join(out, t)
        return out != p


def lattice_sweep_points() -> list[ProductLattice]:
    """Boolean 2^6..2^9, MOk for k = 64/128/256, and 2^m x MO2 and 2^m x O6
    for m = 4..6: distributive, orthomodular-only and non-orthomodular."""
    pts = [ProductLattice(f"B{m}", m, point()) for m in range(6, 10)]
    pts += [ProductLattice(f"MO{k}", 0, mo_factor(k)) for k in (64, 128, 256)]
    pts += [ProductLattice(f"B{m}xMO2", m, mo_factor(2)) for m in range(4, 7)]
    pts += [ProductLattice(f"B{m}xO6", m, o6_factor()) for m in range(4, 7)]
    return pts


# ---------------------------------------------------------------------------
# matrices


def hermitian_with_spectrum(spectrum: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """U diag(spectrum) U^H for a Haar-like random unitary U."""
    n = len(spectrum)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    a = (q * spectrum) @ q.conj().T
    return (a + a.conj().T) / 2


def random_spectrum(n: int, rng: np.random.Generator) -> np.ndarray:
    """n distinct eigenvalues at least 0.5 apart."""
    return np.sort(np.arange(n) + rng.uniform(-0.25, 0.25, n) - n / 2)


def degenerate_spectrum(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """n eigenvalues taking m distinct values, each at least once."""
    levels = np.sort(rng.choice(np.arange(-4 * m, 4 * m), size=m, replace=False) / 2.0)
    counts = np.ones(m, int) + rng.multinomial(n - m, np.full(m, 1.0 / m))
    return np.repeat(levels, counts)


def random_rays(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count unit rays as the columns of an n x count array."""
    x = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
    return x / np.linalg.norm(x, axis=0)


CLUSTER_SCALE = 1e-8  # the library's documented clustering rule, 1e-8 * max(1, |A|)
RAY_TOL = 1e-9        # the library's documented ray support tolerance


@dataclass
class Reference:
    """Clustered spectrum and ray values computed from np.linalg.eigh."""

    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    clusters: list[np.ndarray]

    @property
    def scale(self) -> float:
        return max(1.0, float(np.abs(self.values).max()))

    def components(self, x: np.ndarray) -> np.ndarray:
        """Norm of the ray's component in each spectral subspace."""
        c = np.abs(self.vectors.conj().T @ (x / np.linalg.norm(x))) ** 2
        return np.sqrt(np.array([c[idx].sum() for idx in self.clusters]))

    def ray_values(self, x: np.ndarray) -> tuple[float, float, float]:
        """Largest and smallest eigenvalue in the ray's support, and <Ax, x>."""
        support = np.flatnonzero(self.components(x) > RAY_TOL)
        x = x / np.linalg.norm(x)
        ev = float(np.real(np.vdot(x, self.matrix @ x)))
        return float(self.values[support[-1]]), float(self.values[support[0]]), ev


def reference(a: np.ndarray) -> Reference:
    a = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(a)
    tol = CLUSTER_SCALE * max(1.0, float(np.abs(w).max()))
    clusters = np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) >= tol) + 1)
    return Reference(a, np.array([float(np.mean(w[c])) for c in clusters]), v, clusters)
