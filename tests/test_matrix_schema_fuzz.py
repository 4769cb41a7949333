"""The matrix and ray schemas against mutated documents, through the CLI.

The valid matrices ``herm3`` and ``rot6`` and a valid ray for each are
mutated: ``n`` replaced by a wrong kind of value or a wrong size; entries
replaced by booleans, strings, null, lists, 2**70, 10**400, the float
limits and subnormals; rows made ragged; blocks dropped or replaced; the
matrix made non-Hermitian, scaled to the ends of the float range, or
replaced by a diagonal one with near-tied, huge or tiny eigenvalues.
Every run of ``matrix spectral|rays|gelfand|approx``, and of ``matrix
rays --ray``, must end with exit code 0, 1 or 2 through ``sys.exit``; on
exit 0 stdout holds no ``nan`` or ``inf``; and no numpy warning is issued
(warnings are raised as errors, so one would surface as an exception).
"""

import copy
import json
import tempfile
import warnings
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stonespec.cli import main

GOLDEN = Path(__file__).parent / "golden"
BASE_MATRICES = [json.loads((GOLDEN / name).read_text()) for name in ("herm3.json", "rot6.json")]
BAD_ENTRIES = [True, None, "1", "nan", [], [1.0], {}, 2**70, 10**400, 1e308, -1e308, 5e-324,
               1e-300, -0.0]
BAD_VALUES = ["x", 5, None, {}, [], [[]], True, 1.5]
SCALES = [1e300, -1e300, 1e-300, 1e-320, 0.0]
DIAGONALS = [0.0, 1.0, 1.0 + 1e-15, 1.0 + 1e-9, 1.0 - 1e-9, -1.0, 1e308, -1e308, 1e-310, 1e154]


def _blocks(doc):
    """The real and imaginary blocks that are still lists of lists."""
    return [doc[key] for key in ("re", "im") if isinstance(doc.get(key), list)
            and doc[key] and all(isinstance(row, list) and row for row in doc[key])]


def bad_n(draw, doc):
    n = doc["n"] if isinstance(doc["n"], int) else 3
    doc["n"] = draw(st.sampled_from(BAD_VALUES + [0, -1, n - 1, n + 1, 2**70, float(n), str(n)]))


def bad_entry(draw, doc):
    if _blocks(doc):
        block = draw(st.sampled_from(_blocks(doc)))
        row = draw(st.sampled_from(block))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_ENTRIES))


def ragged(draw, doc):
    if _blocks(doc):
        block = draw(st.sampled_from(_blocks(doc)))
        if draw(st.booleans()):
            draw(st.sampled_from(block)).pop()
        else:
            block.append(list(block[0]))


def bad_block(draw, doc):
    key = draw(st.sampled_from(["re", "im"]))
    if draw(st.booleans()):
        doc.pop(key, None)
    else:
        doc[key] = draw(st.sampled_from(BAD_VALUES))


def non_hermitian(draw, doc):
    """One off-diagonal entry changed without its mirror image."""
    blocks = _blocks(doc)
    if blocks and len(blocks[0]) > 1 and len(blocks[0][0]) > 1:
        blocks[0][0][1] = draw(st.sampled_from([0.0, 1e-12, 1.0, 1e308]))


def scaled(draw, doc):
    """Every entry times a factor at the ends of the float range (or zero)."""
    factor = draw(st.sampled_from(SCALES))
    for block in _blocks(doc):
        for row in block:
            row[:] = [x * factor if isinstance(x, float) else x for x in row]


def diagonal(draw, doc):
    """A valid diagonal matrix with near-tied, huge or tiny eigenvalues."""
    values = draw(st.lists(st.sampled_from(DIAGONALS), min_size=1, max_size=5))
    n = len(values)
    doc.clear()
    doc.update(n=n, re=[[values[i] if i == j else 0.0 for j in range(n)] for i in range(n)])


MATRIX_MUTATIONS = [bad_n, bad_entry, ragged, bad_block, non_hermitian, scaled, diagonal]


def ray_mutation(draw, ray):
    choice = draw(st.integers(0, 5))
    if choice == 0:
        ray["re"][draw(st.integers(0, len(ray["re"]) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
    elif choice == 1:
        ray[draw(st.sampled_from(["re", "im"]))].pop()
    elif choice == 2:
        ray.update(re=[0.0] * len(ray["re"]), im=[0.0] * len(ray["im"]))
    elif choice == 3:
        factor = draw(st.sampled_from(SCALES))
        ray.update(re=[x * factor for x in ray["re"]], im=[x * factor for x in ray["im"]])
    elif choice == 4:
        ray[draw(st.sampled_from(["re", "im"]))] = draw(st.sampled_from(BAD_VALUES))
    else:
        ray.pop(draw(st.sampled_from(["re", "im"])))


@st.composite
def mutated_docs(draw):
    """A valid matrix with zero to three mutations, and a ray of its size with
    zero or one."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_MATRICES)))
    for _ in range(draw(st.integers(0, 3))):
        draw(st.sampled_from(MATRIX_MUTATIONS))(draw, doc)
    n = len(BASE_MATRICES[0]["re"]) if not isinstance(doc.get("re"), list) else len(doc["re"])
    ray = {"re": [float(i + 1) for i in range(n)], "im": [0.5] * n}
    if n and draw(st.booleans()):
        ray_mutation(draw, ray)
    return doc, ray


def run(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return CliRunner().invoke(main, args)


# four eigenvalues of 1e308 in one cluster: their sum overflows, their mean does not
BIG_CLUSTER = {"n": 5, "re": [[float(i == j) * (1e308 if i < 4 else 1.0) for j in range(5)]
                              for i in range(5)]}


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_docs())
@example((BIG_CLUSTER, {"re": [1.0, 2.0, 3.0, 4.0, 5.0]}))
def test_mutated_matrix_and_ray_documents_exit_with_a_code(docs):
    doc, ray = docs
    with tempfile.TemporaryDirectory() as tmp:
        matrix_path, ray_path = Path(tmp) / "matrix.json", Path(tmp) / "ray.json"
        matrix_path.write_text(json.dumps(doc))
        ray_path.write_text(json.dumps(ray))
        for call in (["spectral"], ["rays"], ["rays", "--ray", str(ray_path)], ["gelfand"],
                     ["approx", "--eps", "0.3"]):
            result = run(["matrix", call[0], "--matrix", str(matrix_path), *call[1:]])
            where = (call, doc, ray, result.output)
            assert result.exit_code in (0, 1, 2), where
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                where, result.exception)
            assert "Traceback" not in result.output, where
            assert "Warning" not in result.stderr, where
            if result.exit_code == 0:
                assert "nan" not in result.stdout and "inf" not in result.stdout, where
