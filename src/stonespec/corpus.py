"""Built-in verification lattices.

The corpus covers the structural spectrum used everywhere in the test
suites: Boolean algebras (distributive orthomodular), the modular
ortholattices MOn (orthomodular, non-distributive) and the benzene
hexagon O6 (ortho-complemented but not orthomodular).
"""

from __future__ import annotations

import numpy as np

from ._kernels import index_dtype
from .lattice import FiniteOML, _check_table_budget


def boolean_lattice(m: int, atom_names: list[str] | None = None) -> FiniteOML:
    """Subset lattice 2^m; the element index *is* its atom bitmask."""
    n = 1 << m
    _check_table_budget(n, ValueError)  # refused where a file of 2^m elements is, unbuilt
    if atom_names is None:
        atom_names = [f"e{i + 1}" for i in range(m)]
    if len(atom_names) != m:
        raise ValueError("need one name per atom")
    # by doubling: the masks below 2^(i+1) are those below 2^i, then each of
    # them with atom i added, so every name lists its atoms in index order
    names = [""]
    for a in atom_names:
        names += [a] + [f"{s}+{a}" for s in names[1:]]
    names[0], names[-1] = "0", "1"
    masks = np.arange(n, dtype=index_dtype(n))
    leq = (masks[:, None] & ~masks[None, :]) == 0  # subset inclusion
    ortho = (n - 1) ^ masks
    meet = masks[:, None] & masks[None, :]
    join = masks[:, None] | masks[None, :]
    return FiniteOML(names, leq, ortho, tables=(meet, join))


def chain2() -> FiniteOML:
    return boolean_lattice(1)


_MO_LETTERS = "abcdefgh"


def mo(k: int) -> FiniteOML:
    """MOk: bottom, top and k orthocomplementary atom pairs, no other order."""
    if not 1 <= k <= len(_MO_LETTERS):
        raise ValueError(f"mo supports 1..{len(_MO_LETTERS)} atom pairs")
    n = 2 * k + 2
    names = ["0"]
    for i in range(k):
        names += [_MO_LETTERS[i], _MO_LETTERS[i] + "'"]
    names.append("1")
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    ortho = np.arange(n)
    ortho[0], ortho[n - 1] = n - 1, 0
    for i in range(k):
        ortho[1 + 2 * i], ortho[2 + 2 * i] = 2 + 2 * i, 1 + 2 * i
    return FiniteOML(names, leq, ortho)


def benzene() -> FiniteOML:
    """Hexagon O6: chains 0 < a < b < 1 and 0 < b' < a' < 1 with a <-> a'.

    Ortho-complemented and order-reversing but not orthomodular: a <= b yet
    a v (b ^ a') = a.
    """
    names = ["0", "a", "b", "b'", "a'", "1"]
    n = 6
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, 5] = True
    leq[1, 2] = True  # a <= b
    leq[3, 4] = True  # b' <= a'
    ortho = np.array([5, 4, 3, 2, 1, 0])
    return FiniteOML(names, leq, ortho)


def corpus() -> dict[str, FiniteOML]:
    """All built-in lattices, keyed by their CLI names."""
    return {
        "chain-2": chain2(),
        "B2": boolean_lattice(2, ["p", "q"]),
        "2^3": boolean_lattice(3),
        "2^4": boolean_lattice(4),
        "MO2": mo(2),
        "MO3": mo(3),
        "benzene-O6": benzene(),
    }
