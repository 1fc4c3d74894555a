"""Loader fuzzing through the command line.

Each example mutates one bundled space or triangulation file (drops keys,
swaps value types, perturbs small integers, flips `oriented`), writes it
out and runs one verb on it through `cli.main`.  Whatever the mutation,
the run ends in exit 0, 1 or 2 without an exception, and exit 1 (a
failed verdict) comes only from `verify` or `signature`.  A space file
whose one mutation puts a boolean or a float where an integer stood is
refused with exit 2, since every integer of a space file is read.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from strathom.cli import main

DATA = Path(__file__).parent.parent / "src" / "strathom" / "data"
SPACE = str(DATA / "s2xt2_space.json")
PAIRING = str(DATA / "cp2_minus_ball.json")

# the verbs run on a mutated file F
SPACE_VERBS = (
    ("hi", "F", "--p", "0"),
    ("ih", "F", "--q", "0"),
    ("ig", "F", "--k", "1"),
    ("table", "F"),
    ("verify", "F", "--theorem", "hom", "--p", "0"),
    ("verify", "F", "--theorem", "duality", "--p", "0"),
    ("hodge", "F", "--p", "0"),
    ("conifold-transition", "F"),
    ("signature", "F", "--pairing", PAIRING),
)
TRIANGULATION_VERBS = (
    ("homology", "F"),
    ("ih-direct", "F", "--p", "0", "--subdivide", "0"),
    ("ih-direct", "F", "--p", "0"),
    ("signature", SPACE, "--pairing", "F"),
)
INPUTS = {
    **{stem: SPACE_VERBS for stem in
       ("s2xt2_space", "pinched_torus_space", "st2xs1_space")},
    **{stem: TRIANGULATION_VERBS for stem in
       ("cone_torus", "cp2_minus_ball", "ixs1xt2")},
}
OTHER_VALUES = (None, True, "x", "1/0", 2.5, -1, [], {}, [[1]], {"0": [[1]]})


def _mutate(draw, data: dict) -> bool:
    """Apply one mutation in place at a drawn position of `data`; return
    whether it put a boolean or a float in place of an integer."""
    op = draw(st.sampled_from(("drop", "retype", "perturb", "orient")))
    if op == "orient":
        data["oriented"] = not data.get("oriented", True)
        return False
    parent, key = data, draw(st.sampled_from(sorted(data)))
    while isinstance(parent[key], (dict, list)) and parent[key] \
            and draw(st.booleans()):
        parent = parent[key]
        keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
        key = draw(st.sampled_from(list(keys)))
    value = parent[key]
    if op == "perturb" and type(value) is int:
        parent[key] = value + draw(st.sampled_from((-2, -1, 1, 2)))
    elif op == "drop":
        del parent[key]
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(
            [v for v in OTHER_VALUES if type(v) is not type(value)])))
        return type(value) is int and type(parent[key]) in (bool, float)
    return False


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_mutated_inputs_exit_cleanly(data):
    stem = data.draw(st.sampled_from(list(INPUTS)), label="input")
    verb = data.draw(st.sampled_from(INPUTS[stem]), label="verb")
    obj = json.loads((DATA / f"{stem}.json").read_text())
    mutations = data.draw(st.integers(1, 3), label="mutations")
    int_retyped = False
    for _ in range(mutations):
        if obj:
            int_retyped = _mutate(data.draw, obj)
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / f"{stem}.json"
        f.write_text(json.dumps(obj))
        argv = [str(f) if a == "F" else a for a in verb]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, obj, err.getvalue())
    assert code != 1 or argv[0] in ("verify", "signature"), (argv, obj)
    if mutations == 1 and int_retyped and INPUTS[stem] is SPACE_VERBS:
        assert code == 2, (argv, obj, err.getvalue())


def _int_paths(node, path=()):
    """The key paths of every integer inside a JSON value."""
    if type(node) is int:
        yield path
    elif isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict)
                     else enumerate(node)):
            yield from _int_paths(v, path + (k,))


def test_every_integer_of_a_space_file_retyped_exits_2():
    """The sweep behind the one-mutation assertion above: each integer of
    each bundled space file, replaced by `true` or 2.5, is refused with
    exit 2 naming its top-level field."""
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "space.json"
        for stem, verbs in INPUTS.items():
            if verbs is not SPACE_VERBS:
                continue
            original = json.loads((DATA / f"{stem}.json").read_text())
            for path in _int_paths(original):
                for value in (True, 2.5):
                    obj = copy.deepcopy(original)
                    parent = obj
                    for k in path[:-1]:
                        parent = parent[k]
                    parent[path[-1]] = value
                    f.write_text(json.dumps(obj))
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = main(["hi", str(f), "--p", "0"])
                    assert code == 2 and f".{path[0]}" in err.getvalue(), (
                        stem, path, value, err.getvalue())
