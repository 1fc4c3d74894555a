"""Loader fuzzing through the command line.

Each example mutates one bundled space or triangulation file (drops keys,
swaps value types, perturbs small integers, flips `oriented`), writes it
out and runs one verb on it through `cli.main`.  Whatever the mutation,
the run ends in exit 0, 1 or 2 without an exception, and exit 1 (a
failed verdict) comes only from `verify` or `signature`.
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
    ("signature", SPACE, "--pairing", "F"),
)
INPUTS = {
    **{stem: SPACE_VERBS for stem in
       ("s2xt2_space", "pinched_torus_space", "st2xs1_space")},
    **{stem: TRIANGULATION_VERBS for stem in
       ("cone_torus", "cp2_minus_ball", "ixs1xt2")},
}
OTHER_VALUES = (None, True, "x", "1/0", 2.5, -1, [], {}, [[1]], {"0": [[1]]})


def _mutate(draw, data: dict) -> None:
    """Apply one mutation in place at a drawn position of `data`."""
    op = draw(st.sampled_from(("drop", "retype", "perturb", "orient")))
    if op == "orient":
        data["oriented"] = not data.get("oriented", True)
        return
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


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_mutated_inputs_exit_cleanly(data):
    stem = data.draw(st.sampled_from(list(INPUTS)), label="input")
    verb = data.draw(st.sampled_from(INPUTS[stem]), label="verb")
    obj = json.loads((DATA / f"{stem}.json").read_text())
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        if obj:
            _mutate(data.draw, obj)
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / f"{stem}.json"
        f.write_text(json.dumps(obj))
        argv = [str(f) if a == "F" else a for a in verb]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, obj, err.getvalue())
    assert code != 1 or argv[0] in ("verify", "signature"), (argv, obj)
