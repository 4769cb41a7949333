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
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import LatticeError, SchemaError
from .lattice import FiniteOML, _check_table_budget
from .spectral import ObservableTable, SpectralFamily, make_spectral_family, table_from_pairs


# Matrix and ray files are refused past this many bytes, before they are read.
# Parsing the JSON holds the text, a Python float per entry and the arrays at
# once: `matrix spectral` peaks at 168 MB RSS on an n = 1024 complex file of
# 46 MB (3.6 bytes a file byte) and at 535 MB on an n = 2048 file of 185 MB
# (2.9; 2-core x86_64 VM, Python 3.11).  256 MiB admits n of about 2400 at 17
# digits an entry, and keeps the peak near 0.75 GB, below the lattice cap's.
MATRIX_BYTES_CAP = 1 << 28


def _read_json(path, cap: int | None = None) -> dict:
    """The top-level object of a JSON file; with ``cap``, a file of more bytes
    is refused before it is read."""
    if cap is not None and (size := Path(path).stat().st_size) > cap:
        raise SchemaError(f"{path}: {size} bytes of JSON, past the cap of {cap} bytes "
                          f"({cap / 2**20:g} MiB) for matrix and ray files")
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


def _all_numbers(x, ndim: int) -> bool:
    """Every entry of x, nested lists that numpy read as an array of ``ndim``
    dimensions, is an int or a float; bool is a type of its own."""
    entries = [x]
    for _ in range(ndim):
        entries = itertools.chain.from_iterable(entries)
    return set(map(type, entries)) <= {int, float}


def _number_blocks(re, im, path, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary blocks of finite numbers, no booleans; a missing one is zero."""
    try:
        re_arr = np.asarray(re, dtype=np.float64)
        im_arr = np.zeros_like(re_arr) if im is None else np.asarray(im, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: {what} entries must be numbers") from exc
    # numpy accepted the nesting, so it is rectangular; it parses strings and null
    if not (_all_numbers(re, re_arr.ndim) and (im is None or _all_numbers(im, im_arr.ndim))):
        raise SchemaError(f"{path}: {what} entries must be numbers")
    if not (np.isfinite(re_arr).all() and np.isfinite(im_arr).all()):
        raise SchemaError(f"{path}: {what} entries must be finite")
    return re_arr, im_arr


# ---------------------------------------------------------------------------
# lattices


def _ranges(ptr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The index ranges ptr[i]:ptr[i + 1] for i in idx, concatenated."""
    starts = ptr[idx]
    lens = ptr[idx + 1] - starts
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def _close_rows(rows: np.ndarray, rel: np.ndarray) -> None:
    """OR into each packed row of ``rel`` the rows of its successors, in
    reverse topological order, one round per level; the rows that never
    become final, those on or above a cycle, go to :func:`_close_cycles`."""
    n = rel.shape[0]
    src, dst = np.divmod(np.flatnonzero(rel), n)  # the pairs, sorted by src
    keep = src != dst
    src, dst = src[keep], dst[keep]
    succ_ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    pred = src[np.argsort(dst)]  # grouped by dst
    pred_ptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n))))
    left = np.diff(succ_ptr)  # successors not yet final
    level = np.flatnonzero(left == 0)  # the rows of sinks are final as they are
    while True:
        done = np.bincount(pred[_ranges(pred_ptr, level)], minlength=n)
        left -= done
        level = np.flatnonzero((left == 0) & (done > 0))
        if not level.size:
            break
        edges = _ranges(succ_ptr, level)
        for block in _kernels.row_blocks(edges.size, 8 * rows.shape[1]):
            e = edges[block]
            x = src[e]
            heads = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
            rows[x[heads]] |= np.bitwise_or.reduceat(rows[dst[e]], heads, axis=0)
    if left.any():
        _close_cycles(rows, dst, succ_ptr, left > 0)


def _close_cycles(rows: np.ndarray, dst: np.ndarray, ptr: np.ndarray, stuck: np.ndarray) -> None:
    """Close the packed rows of the elements where ``stuck`` is set, whose
    successors are dst[ptr[v]:ptr[v + 1]], every other row being closed.  An
    iterative Tarjan pass over them (Tarjan, SIAM J. Comput., 1972) emits
    their strongly connected components in reverse topological order, and a
    component's row is the OR of the rows of its members and their
    successors, which holds every member when it has more than one."""
    n = ptr.size - 1
    succ, first, end = dst.tolist(), ptr[:-1].tolist(), ptr[1:].tolist()
    # index[v]: v's place on the stack, which orders the elements it holds;
    # low[v] = n once v's component is closed (closed rows count as done)
    index, low, stack = np.where(stuck, -1, 0).tolist(), [n] * n, []
    for root in range(n):
        work = [] if index[root] >= 0 else [(root, first[root])]
        while work:
            v, e = work.pop()
            if index[v] < 0:
                index[v] = low[v] = len(stack)
                stack.append(v)
            if e < end[v]:  # the next successor of v
                work.append((v, e + 1))
                if index[w := succ[e]] < 0:
                    work.append((w, first[w]))
                else:
                    low[v] = min(low[v], low[w])
                continue
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                members = np.array(stack[index[v]:])
                del stack[index[v]:]
                take = np.concatenate((members, dst[_ranges(ptr, members)]))
                rows[members] = np.bitwise_or.reduce([
                    np.bitwise_or.reduce(rows[take[b]])
                    for b in _kernels.row_blocks(take.size, 8 * rows.shape[1])])
                for x in members.tolist():
                    low[x] = n


def transitive_closure(leq: np.ndarray) -> np.ndarray:
    """Transitive closure of a boolean relation: out[i, j] iff a path of one
    or more steps leads from i to j.

    Bit-packed rows are propagated over the relation's own pairs in reverse
    topological order, one numpy round per level (Kahn 1962, by levels): once
    every successor of x is final, row x becomes its own row ORed with theirs.
    The successor rows of a level are gathered in blocks of at most
    ``_kernels._SCAN_BYTES``.  Elements on or above a cycle never become
    final; one Tarjan pass over them alone closes their strongly connected
    components (such a relation is refused as not antisymmetric).  No step
    runs a matrix product.
    """
    rel = np.asarray(leq, dtype=bool)
    rows = _kernels.packed_rows(rel)
    _close_rows(rows, rel)
    return _kernels.unpacked_rows(rows, rel.shape[0])


def _order_pairs(pairs, n: int, path) -> tuple[np.ndarray, np.ndarray]:
    """The 'leq' entries as index arrays (i, j).  Each entry must be a list of
    two JSON integers in 0..n-1; the first entry in list order that is not
    is named in the SchemaError."""
    if not isinstance(pairs, list):
        raise SchemaError(f"{path}: 'leq' must be a list of [i, j] pairs")
    typed = next(  # the first entry that is not [int, int]; type() excludes bools
        (k for k, p in enumerate(pairs)
         if type(p) is not list or len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int),
        len(pairs),
    )
    flat = itertools.chain.from_iterable(itertools.islice(pairs, typed))
    try:
        ij = np.fromiter(flat, np.int64, 2 * typed).reshape(-1, 2)
        outside = ((ij < 0) | (ij >= n)).any(axis=1)
    except OverflowError:  # an index past int64, which the check below reports
        outside = [not (0 <= i < n and 0 <= j < n) for i, j in pairs[:typed]]
    if np.any(outside):
        raise SchemaError(f"{path}: 'leq' index out of range in {pairs[np.argmax(outside)]!r}")
    if typed < len(pairs):
        raise SchemaError(f"{path}: bad 'leq' entry {pairs[typed]!r}")
    return ij[:, 0], ij[:, 1]


def load_lattice(path) -> FiniteOML:
    """Read {"elements", "leq" (pairs i <= j), "ortho"}; the reflexive and
    transitive closure is applied, bottom and top are inferred.  A file whose
    tables would pass ``lattice.LATTICE_BYTES_CAP`` is refused with SchemaError."""
    data = _read_json(path)
    names = _require(data, "elements", path)
    pairs = _require(data, "leq", path)
    ortho = _require(data, "ortho", path)
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise SchemaError(f"{path}: 'elements' must be a list of names")
    n = len(names)
    _check_table_budget(n, SchemaError, f"{path}: ")
    leq = np.eye(n, dtype=bool)
    i, j = _order_pairs(pairs, n, path)
    leq[i, j] = True
    if (
        not isinstance(ortho, list)
        or len(ortho) != n
        or not all(_is_int(x) and 0 <= x < n for x in ortho)
    ):
        raise SchemaError(f"{path}: 'ortho' must list one index per element")
    leq = transitive_closure(leq)  # rebound, so the file's relation is freed first
    return FiniteOML(names, leq, ortho)


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
    if len(out) != len(values) or set(out) != atoms:
        raise SchemaError(f"{path}: need exactly one value per atom")
    return out


# ---------------------------------------------------------------------------
# matrices and rays


def load_matrix(path) -> np.ndarray:
    data = _read_json(path, MATRIX_BYTES_CAP)
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
    data = _read_json(path, MATRIX_BYTES_CAP)
    re = _require(data, "re", path)
    re_arr, im_arr = _number_blocks(re, data.get("im"), path, "ray")
    if re_arr.ndim != 1 or re_arr.shape != im_arr.shape:
        raise SchemaError(f"{path}: ray blocks must be equal-length vectors")
    return re_arr + 1j * im_arr


# ---------------------------------------------------------------------------
# CSV emitters


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each float, from one repr of their list, whose items Python
    joins with ", "."""
    return repr(values.tolist())[1:-1].split(", ") if len(values) else []


class RaysCsv:
    """CSV text of ray tables over one spectrum: rows ``ray_id,f,g,expectation``
    of float reprs, as ``csv.writer`` writes them (the labels ``e1+ie2``,
    ``r0``, ``ray`` never need quoting).  f and g only take the m ascending
    eigenvalues ``values``, so each is formatted once, here, and gathered by
    its index; the <Ax,x> of a block come from one repr of their list."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.text = np.array(_reprs(values), dtype=object)

    def block(self, labels: list[str], f: np.ndarray, g: np.ndarray,
              expectation: np.ndarray, header: bool) -> str:
        k = len(labels)
        fg = self.text[np.searchsorted(self.values, np.concatenate((f, g)))].tolist()
        rows = map("{},{},{},{}\n".format, labels, fg[:k], fg[k:], _reprs(expectation))
        return ("ray_id,f,g,expectation\n" if header else "") + "".join(rows)


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
    ranks = E.lattice.downset_sizes()[E.values].tolist()
    for (lam, _), rank in zip(E.jumps(), ranks):
        w.writerow([repr(lam), rank])
    return buf.getvalue()
