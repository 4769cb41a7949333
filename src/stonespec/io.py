"""File schemas: lattices, spectral families, observable tables, quasipoint
data, matrices and rays, plus the CSV emitters used by the CLI.

Schema violations, booleans and numbers outside the finite floats (NaN,
Infinity, 1e400) among them, raise :class:`SchemaError`; mathematically
broken but well-formed inputs raise :class:`LatticeError`.  Load -> save ->
load is the identity for every schema.
"""

from __future__ import annotations

import csv
import io as _io
import json
import sys
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import LatticeError, SchemaError
from .lattice import FiniteOML
from .spectral import ObservableTable, SpectralFamily, make_spectral_family, table_from_pairs


# Bytes per ordered pair of elements that building and checking a lattice holds
# at once: the order matrix (1), the meet and join tables (8 + 8), and
# bound_tables' float32 bit casts and counts (4 + 4) and its two ok masks (2).
LATTICE_PAIR_BYTES = 27
# A lattice file whose n^2 tables would pass this many bytes is refused before
# anything of size n^2 is allocated: 1 GiB admits n <= 6306 elements.
LATTICE_BYTES_CAP = 1 << 30


def _read_json(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return data


def _require(data: dict, key: str, path):
    if key not in data:
        raise SchemaError(f"{path}: missing key {key!r}")
    return data[key]


def _is_int(x) -> bool:
    """A JSON integer; ``True`` is an int to Python but not an index."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A JSON number within the finite float range, booleans excluded."""
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _has_bool(x) -> bool:
    return isinstance(x, bool) or isinstance(x, list) and any(map(_has_bool, x))


def _number_blocks(re, im, path, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary blocks of finite numbers, no booleans; a missing one is zero."""
    try:
        re_arr = np.asarray(re, dtype=np.float64)
        im_arr = np.zeros_like(re_arr) if im is None else np.asarray(im, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: {what} entries must be numbers") from exc
    if _has_bool([re, im]):  # numpy accepted the nesting, so the recursion is shallow
        raise SchemaError(f"{path}: {what} entries must be numbers")
    if not (np.isfinite(re_arr).all() and np.isfinite(im_arr).all()):
        raise SchemaError(f"{path}: {what} entries must be finite")
    return re_arr, im_arr


# ---------------------------------------------------------------------------
# lattices


def transitive_closure(leq: np.ndarray) -> np.ndarray:
    """Transitive closure by repeated squaring of the boolean relation."""
    out = leq.copy()
    while True:
        step = out | _kernels.bool_matmul(out, out)
        if (step == out).all():
            return out
        out = step


def load_lattice(path) -> FiniteOML:
    """Read {"elements", "leq" (pairs i <= j), "ortho"}; the reflexive and
    transitive closure is applied, bottom and top are inferred.  A file whose
    tables would pass ``LATTICE_BYTES_CAP`` is refused with SchemaError."""
    data = _read_json(path)
    names = _require(data, "elements", path)
    pairs = _require(data, "leq", path)
    ortho = _require(data, "ortho", path)
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise SchemaError(f"{path}: 'elements' must be a list of names")
    n = len(names)
    need = LATTICE_PAIR_BYTES * n * n
    if need > LATTICE_BYTES_CAP:
        raise SchemaError(
            f"{path}: {n} elements need about {need / 2**30:.2f} GiB for the n^2 "
            f"tables, past the cap of {LATTICE_BYTES_CAP / 2**30:g} GiB"
        )
    leq = np.eye(n, dtype=bool)
    if not isinstance(pairs, list):
        raise SchemaError(f"{path}: 'leq' must be a list of [i, j] pairs")
    for item in pairs:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(_is_int(x) for x in item)
        ):
            raise SchemaError(f"{path}: bad 'leq' entry {item!r}")
        i, j = item
        if not (0 <= i < n and 0 <= j < n):
            raise SchemaError(f"{path}: 'leq' index out of range in {item!r}")
        leq[i, j] = True
    if (
        not isinstance(ortho, list)
        or len(ortho) != n
        or not all(_is_int(x) and 0 <= x < n for x in ortho)
    ):
        raise SchemaError(f"{path}: 'ortho' must list one index per element")
    return FiniteOML(names, transitive_closure(leq), ortho)


def lattice_to_dict(L: FiniteOML) -> dict:
    return {
        "elements": list(L.names),
        "leq": [[i, j] for i, j in L.cover_pairs()],
        "ortho": [int(x) for x in L.ortho],
    }


def save_lattice(L: FiniteOML, path) -> None:
    Path(path).write_text(json.dumps(lattice_to_dict(L), indent=2) + "\n")


# ---------------------------------------------------------------------------
# spectral families and tables


def load_family(path, L: FiniteOML) -> SpectralFamily:
    data = _read_json(path)
    jumps = _require(data, "jumps", path)
    if not isinstance(jumps, list) or not jumps:
        raise SchemaError(f"{path}: 'jumps' must be a nonempty list")
    parsed = []
    for item in jumps:
        if not isinstance(item, dict) or "lambda" not in item or "element" not in item:
            raise SchemaError(f"{path}: bad jump entry {item!r}")
        lam, el = item["lambda"], item["element"]
        if not _is_number(lam) or not _is_int(el):
            raise SchemaError(f"{path}: bad jump types in {item!r}")
        if not 0 <= el < L.n:
            raise SchemaError(f"{path}: element index {el} out of range")
        parsed.append((float(lam), el))
    return make_spectral_family(L, parsed)


def family_to_dict(E: SpectralFamily) -> dict:
    return {"jumps": [{"lambda": l, "element": v} for l, v in E.jumps()]}


def save_family(E: SpectralFamily, path) -> None:
    Path(path).write_text(json.dumps(family_to_dict(E), indent=2) + "\n")


def load_table(path, L: FiniteOML) -> ObservableTable:
    data = _read_json(path)
    values = _require(data, "values", path)
    if not isinstance(values, list):
        raise SchemaError(f"{path}: 'values' must be a list")
    pairs = []
    for item in values:
        if not isinstance(item, dict) or "element" not in item or "f" not in item:
            raise SchemaError(f"{path}: bad value entry {item!r}")
        el, f = item["element"], item["f"]
        if not _is_int(el) or not _is_number(f):
            raise SchemaError(f"{path}: bad value types in {item!r}")
        if not 0 <= el < L.n:
            raise SchemaError(f"{path}: element index {el} out of range")
        pairs.append((el, float(f)))
    return table_from_pairs(L, pairs)


def table_to_dict(t: ObservableTable) -> dict:
    return {
        "values": [
            {"element": int(p), "f": float(t.values[p])} for p in t.lattice.nonzero()
        ]
    }


def save_table(t: ObservableTable, path) -> None:
    Path(path).write_text(json.dumps(table_to_dict(t), indent=2) + "\n")


def load_quasipoint_data(path, L: FiniteOML) -> dict[int, float]:
    data = _read_json(path)
    values = _require(data, "values", path)
    if not isinstance(values, list):
        raise SchemaError(f"{path}: 'values' must be a list")
    atoms = set(L.atoms())
    out: dict[int, float] = {}
    for item in values:
        if not isinstance(item, dict) or "atom" not in item or "f" not in item:
            raise SchemaError(f"{path}: bad value entry {item!r}")
        a, f = item["atom"], item["f"]
        if not _is_int(a) or not _is_number(f):
            raise SchemaError(f"{path}: bad value types in {item!r}")
        if a not in atoms:
            raise SchemaError(f"{path}: index {a} is not an atom")
        out[a] = float(f)
    if set(out) != atoms:
        raise SchemaError(f"{path}: need exactly one value per atom")
    return out


# ---------------------------------------------------------------------------
# matrices and rays


def load_matrix(path) -> np.ndarray:
    data = _read_json(path)
    n = _require(data, "n", path)
    re = _require(data, "re", path)
    if not _is_int(n) or n <= 0:
        raise SchemaError(f"{path}: 'n' must be a positive integer")
    re_arr, im_arr = _number_blocks(re, data.get("im"), path, "matrix")
    if re_arr.shape != (n, n) or im_arr.shape != (n, n):
        raise SchemaError(f"{path}: matrix blocks must be {n} x {n}")
    return re_arr + 1j * im_arr


def matrix_to_dict(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {
        "n": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def save_matrix(a: np.ndarray, path) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(a), indent=2) + "\n")


def load_ray(path) -> np.ndarray:
    data = _read_json(path)
    re = _require(data, "re", path)
    re_arr, im_arr = _number_blocks(re, data.get("im"), path, "ray")
    if re_arr.ndim != 1 or re_arr.shape != im_arr.shape:
        raise SchemaError(f"{path}: ray blocks must be equal-length vectors")
    return re_arr + 1j * im_arr


# ---------------------------------------------------------------------------
# CSV emitters


def rays_csv(rows: list[tuple[str, float, float, float]], header: bool = True) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if header:
        w.writerow(["ray_id", "f", "g", "expectation"])
    for row in rows:
        w.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])
    return buf.getvalue()


def transform_csv(labels: list[str], values: np.ndarray) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["atom", "re", "im"])
    for label, v in zip(labels, values):
        w.writerow([label, repr(float(v.real)), repr(float(v.imag))])
    return buf.getvalue()


def family_csv(E: SpectralFamily) -> str:
    """Step plot data: (lambda, element rank), rank = size of the downset."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["lambda", "element_rank"])
    for lam, v in E.jumps():
        rank = int(E.lattice.leq[:, v].sum())
        w.writerow([repr(lam), rank])
    return buf.getvalue()
