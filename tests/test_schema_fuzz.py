"""The lattice schema against mutated documents, through the CLI.

Valid lattice documents from the corpus are mutated: indices replaced by
booleans, floats, strings, 2**70 and negative or out-of-range numbers;
pairs made ragged or three long; pairs duplicated, reversed into cycles or
dropped; 'leq', 'ortho' and 'elements' replaced by the wrong kind of value.
Every run of ``check`` and ``quasipoints`` must end with exit code 0, 1 or
2, through ``sys.exit`` and without a traceback.
"""

import copy
import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stonespec import io as sio
from stonespec.cli import main
from stonespec.corpus import corpus

BASE_DOCS = [sio.lattice_to_dict(L) for _, L in sorted(corpus().items()) if L.n <= 8]
BAD_INDICES = [True, False, 1.0, 1.5, "1", None, [0], 2**70, -(2**70), -1]
BAD_VALUES = ["x", 5, None, {}, {"0": 1}, [[]], True]


def _index(draw, doc):
    return draw(st.sampled_from(BAD_INDICES + [len(doc["elements"])]))


def _lists(doc):
    """Whether the three keys still hold lists (earlier mutations may have replaced them)."""
    return all(isinstance(doc.get(key), list) for key in ("elements", "leq", "ortho"))


def _pairs(doc):
    return [p for p in doc["leq"] if isinstance(p, list) and len(p) == 2]


def bad_pair_index(draw, doc):
    if _pairs(doc):
        pair = draw(st.sampled_from(_pairs(doc)))
        pair[draw(st.integers(0, 1))] = _index(draw, doc)


def bad_pair_shape(draw, doc):
    n = len(doc["elements"])
    shapes = [[], [0], [0, 1, 2], [0, n - 1, 0], 0, "0 1", None, {"i": 0, "j": 1}]
    doc["leq"].insert(draw(st.integers(0, len(doc["leq"]))), draw(st.sampled_from(shapes)))


def duplicate_pair(draw, doc):
    if _pairs(doc):
        doc["leq"].append(list(draw(st.sampled_from(_pairs(doc)))))


def cycle(draw, doc):
    """A pair reversed, so the closure has a cycle; or a self-loop."""
    if _pairs(doc):
        i, j = draw(st.sampled_from(_pairs(doc)))
        doc["leq"].append(draw(st.sampled_from([[j, i], [i, i]])))


def drop_pair(draw, doc):
    if doc["leq"]:
        doc["leq"].pop(draw(st.integers(0, len(doc["leq"]) - 1)))


def bad_leq(draw, doc):
    doc["leq"] = draw(st.sampled_from(BAD_VALUES))


def bad_ortho(draw, doc):
    n = len(doc["elements"])
    choice = draw(st.integers(0, 4))
    if choice == 0:
        doc["ortho"] = draw(st.sampled_from(BAD_VALUES))
    elif choice == 1:
        doc["ortho"] = doc["ortho"][:-1]
    elif choice == 2 and doc["ortho"]:
        doc["ortho"][draw(st.integers(0, len(doc["ortho"]) - 1))] = _index(draw, doc)
    elif choice == 3:
        doc["ortho"] = list(range(n))  # a permutation that does not reverse the order
    elif doc["ortho"]:
        doc["ortho"][0] = doc["ortho"][-1]  # not a permutation


def bad_elements(draw, doc):
    choice = draw(st.integers(0, 3))
    if choice == 0:
        doc["elements"] = draw(st.sampled_from(BAD_VALUES))
    elif choice == 1:
        doc["elements"][0] = doc["elements"][-1]  # duplicate names
    elif choice == 2:
        doc["elements"][0] = draw(st.sampled_from([0, None, True]))
    else:
        doc["elements"] = doc["elements"][:-1]  # an index now out of range


def drop_key(draw, doc):
    del doc[draw(st.sampled_from(["elements", "leq", "ortho"]))]


MUTATIONS = [bad_pair_index, bad_pair_shape, duplicate_pair, cycle, drop_pair, bad_leq,
             bad_ortho, bad_elements, drop_key]


@st.composite
def mutated_docs(draw):
    """A corpus document with one to three mutations; once a key holds the
    wrong kind of value or is gone, the document is left as it is."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(MUTATIONS))
        if _lists(doc) and doc["elements"]:
            mutation(draw, doc)
    return doc


def run(args):
    return CliRunner().invoke(main, args)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_docs())
def test_mutated_lattice_documents_exit_with_a_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lattice.json"
        path.write_text(json.dumps(doc))
        for command in ("check", "quasipoints"):
            result = run([command, "--lattice", str(path)])
            assert result.exit_code in (0, 1, 2), (command, doc, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert "Traceback" not in result.output


def test_first_bad_pair_in_list_order_is_named(tmp_path):
    """An out-of-range entry listed before a boolean one is reported as out
    of range, and the other way round as a bad entry."""
    doc = sio.lattice_to_dict(corpus()["B2"])
    path = tmp_path / "lattice.json"
    for leq, message in (([[0, 9], [True, 1]], "'leq' index out of range in [0, 9]"),
                         ([[True, 1], [0, 9]], "bad 'leq' entry [True, 1]"),
                         ([[0, 1], [2**70, 1]], f"'leq' index out of range in [{2**70}, 1]")):
        path.write_text(json.dumps({**doc, "leq": leq}))
        result = run(["check", "--lattice", str(path)])
        assert result.exit_code == 2
        assert message in result.output
