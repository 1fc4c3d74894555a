#!/usr/bin/env python3
"""Check that two source trees print the same thing on every benchmark
command and on a fixed list of command lines that no workload runs.

    python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout holding `src/strathom` and `bench/workloads.py`.
For each tree, a subprocess of its own imports that tree's `strathom` and
`bench/workloads.py`, writes the inputs of every workload for seeds 1-3
into a temporary directory with `workloads.generate`, and runs each
command there through `strathom.cli.main`, with and without `--json`.  It
then runs each line of `CLI_ONLY` the same way, in a temporary copy of the
tree's own `src/strathom/data` with bare file names, so paths print alike
in both trees.  The copy also holds each file of `UNORIENTED` with its
`orientation` removed, as `<stem>_no_orientation.json`, so that some lines
load a triangulation whose orientation is propagated, and each file of
`MIXED_TOPS`, a triangulation whose top simplices have mixed lengths, so
that some lines close one and read its facets.  It records the
input digests and, per command, the exit code, stdout and stderr; an
exception that escapes `main` is recorded as its type and message, not
raised.  Nothing under `bench/` or `src/` is written to.

The two records are compared command by command.  Every mismatch is
printed, then the count of identical runs; the exit code is 1 if any run
differs, 0 otherwise.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)

# command lines no workload runs: the `ih` verb, `--help`, the refusals
# (exit 2), a failed verdict (exit 1), propagated orientations and top
# simplices of mixed lengths, on the bundled data files and the files
# written from them
CLI_ONLY = (
    "ih s2xt2_space.json --q-range -1..3",
    "ih pinched_torus_space.json --q 0",
    "ih st2xs1_space.json --q 1",
    "--help",
    "hi --help",
    "verify --help",
    "modes --help",
    "hi s2xt2_space.json",
    "hi s2xt2_space.json --p 0 --p-range 0..1",
    "hi s2xt2_space.json --p 0 --frobnicate 1",
    "ig s2xt2_space.json",
    "verify s2xt2_space.json --theorem hom",
    "verify s2xt2_space.json --theorem duality --p 0 --pairing ixs1xt2.json",
    "ih-direct s2xt2_space.json --p 0",
    "ih-direct cp2_minus_ball.json --p 0",
    "modes --torus-dim 1 --weight 1/2",
    "frobnicate s2xt2_space.json",
    "table missing.json",
    "table s2xt2_space.json --q-range 3..1",
    "signature st2xs1_space.json --pairing ixs1xt2.json",
    "homology cone_torus.json",
    "ih-direct cone_torus.json --p 0",
    "homology cp2_minus_ball_no_orientation.json",
    "homology ixs1xt2_no_orientation.json",
    "signature s2xt2_space.json --pairing cp2_minus_ball_no_orientation.json",
    "signature s2xt2_space.json --pairing ixs1xt2_no_orientation.json",
    "homology mixed_tops.json",
    "ih-direct mixed_tops_sigma.json --p 0 --subdivide 0",
    "ih-direct mixed_tops_sigma.json --p 0 --subdivide 1",
    "homology mixed_tops_oriented.json",
)

# bundled triangulations that `CLI_ONLY` also reads without their orientation
UNORIENTED = ("cp2_minus_ball", "ixs1xt2")

# a triangle with a dangling edge and an isolated vertex, written as
# `<stem>.json` per entry: bare, with a sigma, and with an orientation, which
# is refused (exit 2) because the complex is not pure
_MIXED = {"vertices": ["a", "b", "c", "d", "e"],
          "top_simplices": [["a", "b", "c"], ["c", "d"], ["e"]]}
MIXED_TOPS = {"mixed_tops": _MIXED,
              "mixed_tops_sigma": {**_MIXED, "sigma": ["c"]},
              "mixed_tops_oriented": {**_MIXED, "orientation": [1, 1, 1]}}


def _run(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # an escaped fault is an outcome to compare
            code = f"escaped {type(e).__name__}: {e}"
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def workload_commands(root: Path):
    """Yield (workload seed, input digests, run name, run) for every command
    of every workload and seed, with and without `--json`, using the tree
    at root.  Each workload's inputs are generated before its first yield,
    in a temporary directory that is the working directory while its
    commands are yielded; `run()` runs one command through
    `strathom.cli.main` and returns its outcome."""
    sys.dont_write_bytecode = True  # no __pycache__ in either tree
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from strathom.cli import main

    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for name in workloads.WORKLOADS:
                for seed in SEEDS:
                    workdir = Path(tmp) / f"{name}-{seed}"
                    wl = workloads.generate(name, seed, workdir, root / "src")
                    os.chdir(workdir)
                    for i, cmd in enumerate(wl.commands):
                        for argv in (list(cmd.argv), ["--json", *cmd.argv]):
                            yield (f"{name} seed {seed}", wl.inputs,
                                   f"{name} seed {seed} #{i}: {' '.join(argv)}",
                                   functools.partial(_run, main, argv))
        finally:
            os.chdir(previous)


def collect(root: Path) -> dict:
    """{run name: outcome} for every command of every workload and seed and
    every line of `CLI_ONLY`, plus {workload seed: input digests}, computed
    with the tree at root."""
    runs = {}
    for workload, inputs, key, run in workload_commands(root):
        runs[f"{workload}: inputs"] = inputs
        runs[key] = run()
    from strathom.cli import main

    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        shutil.copytree(root / "src" / "strathom" / "data", data,
                        dirs_exist_ok=True)
        for stem in UNORIENTED:
            tri = json.loads((data / f"{stem}.json").read_text())
            del tri["orientation"]
            (data / f"{stem}_no_orientation.json").write_text(json.dumps(tri))
        for stem, tri in MIXED_TOPS.items():
            (data / f"{stem}.json").write_text(json.dumps(tri))
        os.chdir(data)
        try:
            for line in CLI_ONLY:
                for argv in (shlex.split(line), ["--json", *shlex.split(line)]):
                    runs[f"cli-only: {' '.join(argv)}"] = _run(main, argv)
        finally:
            os.chdir(previous)
    return runs


def _collect_in_subprocess(root: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--collect", str(root)],
        capture_output=True, text=True, check=False)
    if proc.returncode:
        sys.exit(f"collecting outputs of {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _first_difference(a, b) -> str:
    if not (isinstance(a, str) and isinstance(b, str)):
        return f"{a!r} != {b!r}"
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {i + 1}: {x!r} != {y!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def compare(parent: dict, change: dict) -> dict[str, list[str]]:
    """{key: what differs} for every key whose records differ."""
    problems = {}
    for key in sorted(set(parent) | set(change)):
        if key not in parent or key not in change:
            side = "change" if key in change else "parent"
            problems[key] = [f"only in the {side}"]
        elif key.endswith(": inputs"):
            if parent[key] != change[key]:
                problems[key] = ["input digests differ"]
        else:
            a, b = parent[key], change[key]
            found = [f"{field} {_first_difference(a[field], b[field])}"
                     for field in ("exit", "stdout", "stderr")
                     if a[field] != b[field]]
            if found:
                problems[key] = found
    return problems


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--collect":
        json.dump(collect(Path(argv[1]).resolve()), sys.stdout)
        return 0
    if len(argv) != 2:
        sys.stderr.write("usage: same_outputs.py PARENT_ROOT CHANGE_ROOT\n")
        return 2
    parent, change = (_collect_in_subprocess(Path(a).resolve()) for a in argv)
    problems = compare(parent, change)
    for key, found in problems.items():
        for line in found:
            print(f"{key}: {line}")
    runs = [k for k in parent if not k.endswith(": inputs")]
    same = sum(k not in problems for k in runs)
    print(f"{same}/{len(runs)} runs identical (exit code, stdout, stderr)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
