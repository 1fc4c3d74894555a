"""Seeded inputs and command lists for the three benchmark workloads.

`generate(workload, seed, workdir, src)` writes every input the
workload's commands read into `workdir` and returns the command list;
`src` is the source tree the bundled data files come from.  The CLI only
ever sees those files.  The same seed always writes byte-identical files.

Each command carries a `key` that names its logical input rather than the
file: relabeled triangulations keep the name of their source (their
results are invariants of the relabeling), random space models are named
by a hash of their content.  The recorded reference (`reference.json`) is
looked up by this key, so it applies to every seed for the fixed inputs
and to the default seed for the random draws.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("mv-sweep", "triangulation", "cup-pairing")

@dataclass(frozen=True)
class Command:
    """One CLI invocation: `strathom --json <argv>`, run inside the workdir."""

    key: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    @property
    def verb(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    inputs: dict  # file name -> sha256 of its bytes


def _data_dir(src: Path) -> Path:
    return src / "strathom" / "data"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(workdir: Path, name: str, obj: dict) -> str:
    text = json.dumps(obj, sort_keys=True, indent=1) + "\n"
    (workdir / name).write_text(text)
    return name


def _parity(values: list[int]) -> int:
    """Sign of the permutation that sorts `values` (distinct integers)."""
    sign = 1
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] > values[j]:
                sign = -sign
    return sign


def relabel(data: dict, rng: random.Random) -> dict:
    """Rename and reorder the vertices of a triangulation file.

    The vertex order fixes every sign convention, so the orientation of
    each listed top simplex is multiplied by the parity of the reordering
    of its vertices; the oriented complex is the same, only its labels and
    the elimination order they induce change.
    """
    old = [str(v) for v in data["vertices"]]
    new_pos = list(range(len(old)))
    rng.shuffle(new_pos)
    pos = dict(zip(old, new_pos))
    name = {v: f"v{pos[v]}" for v in old}
    old_pos = {v: i for i, v in enumerate(old)}

    def rename(simplices):
        return [[name[str(v)] for v in s] for s in simplices]

    out = {k: v for k, v in data.items()}
    out["vertices"] = [f"v{i}" for i in range(len(old))]
    out["top_simplices"] = rename(data["top_simplices"])
    if "orientation" in data:
        out["orientation"] = [
            sign * _parity([pos[v] for v in sorted(map(str, top),
                                                    key=old_pos.get)])
            for top, sign in zip(data["top_simplices"], data["orientation"])]
    if "boundary" in data:
        out["boundary"] = rename(data["boundary"])
    if "sigma" in data:
        out["sigma"] = [name[str(v)] for v in data["sigma"]]
    return out


def _transition_triangulation():
    """S(T^2) x S^1 with its two singular circles flagged (336 facets)."""
    from strathom.catalog import circle, torus7
    from strathom.simplicial import StratifiedComplex, product_complex, suspension
    prod = product_complex(suspension(torus7()).complex, circle())
    sigma = [v for v in prod.vertices if v.split(",")[0] in ("N*", "S*")]
    return StratifiedComplex(prod, sigma, codim=3)


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# mv-sweep

# Models whose content does not depend on the seed: the bundled ones and
# two large suspension products, whose 14 commands (a fifth of a pass) make
# the stratified tail that cmd_p90_s reads.
_BUNDLED_SPACES = ("s2xt2_space", "pinched_torus_space", "st2xs1_space")
_T4, _T5 = [1, 4, 6, 4, 1], [1, 5, 10, 10, 5, 1]
_LARGE = {"st5xt4": {"kind": "suspension_product", "label": "ST5xT4",
                     "link": _T5, "sigma": _T4},
          "st4xt5": {"kind": "suspension_product", "label": "ST4xT5",
                     "link": _T4, "sigma": _T5}}
N_ALGEBRAIC = 2
N_ORIENTABLE = 2
N_MAX = 8
MODES_TORUS_DIMS = (1, 2, 3)


def _mv_commands(name: str, key: str, space, rng: random.Random | None):
    """The MV verbs on one model.  Fixed models get fixed perversities so
    their commands (and reference entries) are the same for every seed."""
    from strathom.stratified import middle_perversities
    codim = space.codim_sigma
    if rng is None:
        p = middle_perversities(codim)[0]
        k = 1
    else:
        p = rng.randrange(-1, codim + 1)
        k = rng.randrange(0, space.c + 1)
    pr = f"-1..{codim + 1}"
    cmds = [
        Command(f"table {key}", ("table", name)),
        Command(f"hi {key} {pr}", ("hi", name, "--p-range", pr)),
        Command(f"ig {key} k={k}", ("ig", name, "--k", str(k))),
        Command(f"verify-hom {key} p={p}",
                ("verify", name, "--theorem", "hom", "--p", str(p)),
                {"ok": True}),
        Command(f"hodge {key} p={p}", ("hodge", name, "--p", str(p))),
        Command(f"conifold-transition {key}", ("conifold-transition", name)),
    ]
    if space.oriented:
        cmds.insert(4, Command(
            f"verify-duality {key} p={p}",
            ("verify", name, "--theorem", "duality", "--p", str(p)),
            {"ok": True}))
    return cmds


def _mv_sweep(seed: int, workdir: Path, src: Path) -> list[Command]:
    from strathom import io as sio
    from strathom.spaces import random_algebraic_space, random_orientable_space
    rng = random.Random(seed)
    commands = []
    for stem in _BUNDLED_SPACES:
        name = f"{stem}.json"
        shutil.copyfile(_data_dir(src) / name, workdir / name)
        space = sio.load_space(_load(workdir / name), where=name)
        commands += _mv_commands(name, stem, space, None)
    for stem, model in _LARGE.items():
        name = _write_json(workdir, f"{stem}_space.json", model)
        commands += _mv_commands(name, stem, sio.load_space(model), None)
    draws = [("alg", random_algebraic_space) for _ in range(N_ALGEBRAIC)]
    draws += [("or", random_orientable_space) for _ in range(N_ORIENTABLE)]
    for i, (kind, draw) in enumerate(draws):
        space = draw(rng, n_max=N_MAX)
        obj = sio.space_to_dict(space)
        digest = _sha(json.dumps(obj, sort_keys=True).encode())[:12]
        name = _write_json(workdir, f"{kind}{i}_space.json", obj)
        commands += _mv_commands(name, f"{kind}-{digest}", space, rng)
    for d in MODES_TORUS_DIMS:
        commands.append(Command(f"modes d={d}", ("modes", "--torus-dim", str(d))))
    return commands


# ---------------------------------------------------------------------------
# triangulation

def _triangulation(seed: int, workdir: Path, src: Path) -> list[Command]:
    from strathom import io as sio
    from strathom.chains import GradedVS
    from strathom.spaces import s2xt2_space
    from strathom.stratified import cone_formula, ih_ct_dims
    rng = random.Random(seed)
    data = _data_dir(src)
    ixs = _write_json(workdir, "ixs1xt2.json",
                      relabel(_load(data / "ixs1xt2.json"), rng))
    cp2 = _write_json(workdir, "cp2_minus_ball.json",
                      relabel(_load(data / "cp2_minus_ball.json"), rng))
    cone = _write_json(workdir, "cone_torus.json",
                       relabel(_load(data / "cone_torus.json"), rng))
    trans = _write_json(workdir, "transition.json",
                        relabel(sio.complex_to_dict(_transition_triangulation()),
                                rng))
    torus = GradedVS([1, 2, 1])
    cone_ps = range(-3, 5)
    trans_ps = range(-2, 4)
    model = s2xt2_space()
    # Five commands: with an odd count the pooled median latency is the
    # median of one command (ih-direct on the cone), not the midpoint of
    # the gap between two different ones.
    return [
        Command("homology ixs1xt2", ("homology", ixs),
                {"betti": [1, 3, 3, 1, 0]}),
        Command("homology cp2_minus_ball", ("homology", cp2),
                {"betti": [1, 0, 1, 0, 0]}),
        Command("homology cone_torus", ("homology", cone),
                {"betti": [1, 0, 0, 0]}),  # a cone is contractible
        Command("ih-direct cone_torus -3..4", ("ih-direct", cone, "--p-range", "-3..4"),
                {"ih": {str(p): list(cone_formula(torus, 2, p).as_tuple(0, 3))
                        for p in cone_ps}}),
        Command("ih-direct transition -2..3",
                ("ih-direct", trans, "--p-range", "-2..3", "--subdivide", "0"),
                {"ih": {str(q): list(ih_ct_dims(model, q).as_tuple(0, 4))
                        for q in trans_ps}}),
    ]


# ---------------------------------------------------------------------------
# cup-pairing

# sigma(Mbar) for each (space, pairing): n = 4 spaces read the Novikov
# signature of the pairing (0 for I x S^1 x T^2, +1 for CP^2 minus a ball
# in its complex orientation); the 2-dimensional pinched torus reports 0.
_SIGMA = {("s2xt2_space", "ixs1xt2"): 0, ("s2xt2_space", "cp2_minus_ball"): 1,
          ("pinched_torus_space", "ixs1xt2"): 0,
          ("pinched_torus_space", "cp2_minus_ball"): 0}


# Per space and verb: one I x S^1 x T^2 pairing and two CP^2-minus-a-ball
# pairings, so that the cheap commands are two thirds of a pass and the
# median latency lies inside one group rather than between the two.  Each
# command reads a relabeling of its own: the cost of a pairing depends on
# the elimination order the labels induce (for I x S^1 x T^2 by a quarter
# between seeds), so a pass averages over six orders of it, not one.
_PAIRINGS = ("ixs1xt2", "cp2_minus_ball", "cp2_minus_ball")


def _cup_pairing(seed: int, workdir: Path, src: Path) -> list[Command]:
    rng = random.Random(seed)
    data = _data_dir(src)
    sources = {stem: _load(data / f"{stem}.json") for stem in set(_PAIRINGS)}
    commands = []
    for stem in _BUNDLED_SPACES:
        name = f"{stem}.json"
        shutil.copyfile(data / name, workdir / name)
        for pstem in _PAIRINGS:
            if stem == "st2xs1_space":
                # not a Witt space: the correct answer is a refusal
                expect = {"exit": 1, "error_contains": "Witt"}
            else:
                expect = {"ok": True, "sigma_Mbar": _SIGMA[(stem, pstem)]}
            for verb in ("signature", "verify"):
                pname = _write_json(workdir, f"{pstem}_{len(commands)}.json",
                                    relabel(sources[pstem], rng))
                argv = (verb, name, "--pairing", pname)
                if verb == "verify":
                    argv = (verb, name, "--theorem", "signature", "--pairing", pname)
                commands.append(Command(f"{verb} {stem} {pstem}", argv, expect))
    return commands


_BUILDERS = {"mv-sweep": _mv_sweep, "triangulation": _triangulation,
             "cup-pairing": _cup_pairing}


def generate(workload: str, seed: int, workdir: Path, src: Path) -> Workload:
    """Write the workload's inputs for `seed` into a fresh `workdir`."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    commands = _BUILDERS[workload](seed, workdir, src)
    inputs = {p.name: _sha(p.read_bytes()) for p in sorted(workdir.iterdir())}
    return Workload(tuple(commands), inputs)
