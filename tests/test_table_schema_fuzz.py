"""The family, table and quasipoint-data schemas against mutated documents.

Valid documents are built on the corpus lattices of at most 8 elements: a
spectral family that jumps along a chain of joins of atoms up to the top,
its observable table, and the table's values at the atoms as quasipoint
data.  They are mutated: lambdas, values and indices replaced by booleans,
strings, null, lists, 2**70, 10**400, NaN, the infinities, the float limits
and subnormals; indices pointed at the bottom, the top or past the end;
entries dropped, duplicated, swapped or replaced by the wrong kind of
value; keys removed; the list or the whole document replaced; every value
scaled to the ends of the float range.  Every run of ``obsfn --family``
(in its three formats) and ``reconstruct --fn`` must end with exit code 0,
1 or 2 through ``sys.exit``; on exit 0 stdout holds no ``nan`` or ``inf``;
and no numpy warning is issued (warnings are raised as errors, so one would
surface as an exception).  ``io.load_quasipoint_data`` must return one
finite value per atom or raise SchemaError, again without a warning.
"""

import copy
import json
import math
import tempfile
import warnings
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stonespec import io as sio
from stonespec.cli import main
from stonespec.corpus import corpus
from stonespec.errors import SchemaError
from stonespec.spectral import make_spectral_family, observable_fn

BAD_NUMBERS = [True, None, "1", "nan", [], [1.0], {}, 2**70, 10**400, math.nan, math.inf,
               -math.inf, 1e308, -1e308, 5e-324, 1e-300, -0.0]
BAD_VALUES = ["x", 5, None, {}, [], [[]], True, 1.5]
SCALES = [1e300, -1e300, 1e-300, 1e-320, 0.0]


def chain_family(L):
    """Jumps at 0, 1, 2, ... along the joins of the first atoms, up to the top."""
    element, jumps = L.atoms()[0], []
    for k, atom in enumerate(L.atoms()):
        element = L.join(element, atom)
        jumps.append((float(k), element))
        if element == L.top:
            break
    if jumps[-1][1] != L.top:
        jumps.append((float(len(jumps)), L.top))
    return make_spectral_family(L, jumps)


def bases():
    """(lattice document, family, table, quasipoint data) of each small corpus lattice."""
    out = []
    for _, L in sorted(corpus().items()):
        if L.n <= 8:
            E = chain_family(L)
            table = sio.table_to_dict(observable_fn(E))
            atoms = set(L.atoms())
            data = {"values": [{"atom": v["element"], "f": v["f"]} for v in table["values"]
                               if v["element"] in atoms]}
            out.append((sio.lattice_to_dict(L), sio.family_to_dict(E), table, data))
    return out


BASES = bases()


# the list key, index key and number key of each kind of document
KINDS = [("jumps", "element", "lambda"), ("values", "element", "f"), ("values", "atom", "f")]


def _dicts(doc, key):
    """The dict entries of the document's list, if a mutation left one."""
    entries = doc.get(key)
    return [e for e in entries if isinstance(e, dict)] if isinstance(entries, list) else []


def bad_number(draw, doc, n, kind):
    key, _, number = kind
    if _dicts(doc, key):
        draw(st.sampled_from(_dicts(doc, key)))[number] = draw(st.sampled_from(BAD_NUMBERS))


def bad_index(draw, doc, n, kind):
    key, index, _ = kind
    if _dicts(doc, key):
        entry = draw(st.sampled_from(_dicts(doc, key)))
        entry[index] = draw(st.sampled_from(BAD_NUMBERS + [0, n - 1, n, -1]))


def reshuffle(draw, doc, n, kind):
    """An entry dropped, duplicated, swapped with its neighbour, or replaced."""
    key, index, number = kind
    entries = doc.get(key)
    if not isinstance(entries, list) or not entries:
        return
    k = draw(st.integers(0, len(entries) - 1))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        entries.pop(k)
    elif choice == 1:
        entries.insert(k, copy.deepcopy(entries[k]))
    elif choice == 2 and k + 1 < len(entries):
        entries[k], entries[k + 1] = entries[k + 1], entries[k]
    elif choice == 3:
        entries[k] = draw(st.sampled_from(BAD_VALUES + [{index: 0}, {number: 1.0}]))


def swap_values(draw, doc, n, kind):
    """Two numbers exchanged between entries, which breaks monotonicity."""
    key, _, number = kind
    dicts = [e for e in _dicts(doc, key) if number in e]
    if len(dicts) > 1:
        a, b = draw(st.sampled_from(dicts)), draw(st.sampled_from(dicts))
        a[number], b[number] = b[number], a[number]


def scaled(draw, doc, n, kind):
    key, _, number = kind
    factor = draw(st.sampled_from(SCALES))
    for e in _dicts(doc, key):
        if isinstance(e.get(number), float):
            e[number] *= factor


def bad_list(draw, doc, n, kind):
    key = kind[0]
    if draw(st.booleans()):
        doc.pop(key, None)
    else:
        doc[key] = draw(st.sampled_from(BAD_VALUES))


MUTATIONS = [bad_number, bad_index, reshuffle, swap_values, scaled, bad_list]


@st.composite
def mutated(draw, which):
    """A base lattice and its document of the given kind with zero to three
    mutations; now and then the whole document is replaced."""
    lattice, *docs = draw(st.sampled_from(BASES))
    doc = copy.deepcopy(docs[which])
    n = len(lattice["elements"])
    for _ in range(draw(st.integers(0, 3))):
        draw(st.sampled_from(MUTATIONS))(draw, doc, n, KINDS[which])
    if draw(st.integers(0, 19)) == 0:
        doc = draw(st.sampled_from(BAD_VALUES))
    return lattice, doc


def run(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return CliRunner().invoke(main, args)


def check_exit(result, where):
    assert result.exit_code in (0, 1, 2), where
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        where, result.exception)
    assert "Traceback" not in result.output, where
    assert "Warning" not in result.stderr, where
    if result.exit_code == 0:
        assert "nan" not in result.stdout and "inf" not in result.stdout, where


def write(tmp, lattice, doc):
    lattice_path, doc_path = Path(tmp) / "lattice.json", Path(tmp) / "doc.json"
    lattice_path.write_text(json.dumps(lattice))
    doc_path.write_text(json.dumps(doc))
    return str(lattice_path), str(doc_path)


FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(mutated(0))
def test_mutated_family_documents_exit_with_a_code(docs):
    lattice, doc = docs
    with tempfile.TemporaryDirectory() as tmp:
        lattice_path, family_path = write(tmp, lattice, doc)
        for fmt in ("text", "json", "csv"):
            result = run(["obsfn", "--lattice", lattice_path, "--family", family_path,
                          "--format", fmt])
            check_exit(result, (fmt, doc, result.output))


@FUZZ
@given(mutated(1))
def test_mutated_table_documents_exit_with_a_code(docs):
    lattice, doc = docs
    with tempfile.TemporaryDirectory() as tmp:
        lattice_path, table_path = write(tmp, lattice, doc)
        result = run(["reconstruct", "--lattice", lattice_path, "--fn", table_path])
        check_exit(result, (doc, result.output))


@FUZZ
@given(mutated(2))
def test_mutated_quasipoint_data_loads_or_raises_schema_error(docs):
    lattice, doc = docs
    with tempfile.TemporaryDirectory() as tmp:
        lattice_path, data_path = write(tmp, lattice, doc)
        L = sio.load_lattice(lattice_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                data = sio.load_quasipoint_data(data_path, L)
            except SchemaError:
                return
    assert set(data) == set(L.atoms()), doc
    assert all(isinstance(v, float) and math.isfinite(v) for v in data.values()), doc
