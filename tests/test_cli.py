import json
import shlex
from pathlib import Path

import pytest

from strathom.cli import main, parse_range

DATA = Path(__file__).parent.parent / "src" / "strathom" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, (json.loads(out) if out else None), err


def space_file():
    return str(DATA / "s2xt2_space.json")


def test_parse_range():
    assert list(parse_range("-1..2")) == [-1, 0, 1, 2]
    assert list(parse_range("3..3")) == [3]
    with pytest.raises(Exception):
        parse_range("2..-1")
    with pytest.raises(Exception):
        parse_range("1-3")


def test_table_text_and_json_agree(capsys):
    code, data, _ = run_json(capsys, "table", space_file(), "--q-range", "-1..2")
    assert code == 0
    assert data["result"]["dims"]["2"] == [3, 2, 2, 3]
    assert data["result"]["annotations"]["2"] == ["onto", "zero", "inj"]
    code, text, _ = run(capsys, "table", space_file(), "--q-range", "-1..2")
    assert code == 0
    for row in data["result"]["dims"].values():
        for d in row:
            assert str(d) in text


def test_hi_verb(capsys):
    code, data, _ = run_json(capsys, "hi", space_file(), "--p", "0")
    assert code == 0
    assert data["result"]["hi"]["0"] == [0, 2, 4, 2, 0]


def test_ih_verb_range(capsys):
    code, data, _ = run_json(capsys, "ih", space_file(), "--q-range", "-1..2")
    assert code == 0
    assert data["result"]["ih_ct"]["-1"] == [1, 3, 3, 1, 0]
    assert data["result"]["ih_ct"]["2"] == [0, 1, 3, 3, 1]


def test_ig_verb(capsys):
    code, data, _ = run_json(capsys, "ig", space_file(), "--k", "2",
                             "--degree", "1")
    assert code == 0
    assert data["result"]["ig"]["1"] == 2


def test_verify_hom(capsys):
    code, data, _ = run_json(capsys, "verify", space_file(), "--theorem",
                             "hom", "--p", "0", "--degrees", "0..4")
    assert code == 0
    assert data["result"]["ok"] is True
    assert len(data["result"]["verdicts"]) == 5
    _, text, _ = run(capsys, "verify", space_file(), "--theorem", "hom",
                     "--p", "0")
    assert "not independent" in text


def test_verify_coh(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", space_file(), "--theorem", "coh", "--p", "1"])
    assert exc.value.code == 2 and "coh" in capsys.readouterr().err


def test_verify_duality(capsys):
    code, data, _ = run_json(capsys, "verify", space_file(), "--theorem",
                             "duality", "--p", "0")
    assert code == 0
    assert data["result"]["ok"] is True


def test_verify_signature(capsys):
    code, data, _ = run_json(capsys, "verify", space_file(), "--theorem",
                             "signature", "--pairing", str(DATA / "ixs1xt2.json"))
    assert code == 0
    assert data["result"]["sigma_Mbar"] == 0


def test_ih_direct_verb(capsys):
    code, data, _ = run_json(capsys, "ih-direct", str(DATA / "cone_torus.json"),
                             "--p", "0")
    assert code == 0
    assert data["result"]["ih"]["0"] == [1, 2, 0, 0]


def test_ih_direct_unsubdivided(capsys):
    code, data, _ = run_json(capsys, "ih-direct", str(DATA / "cone_torus.json"),
                             "--p", "0", "--subdivide", "0")
    assert code == 0
    assert data["result"]["ih"]["0"] == [1, 2, 0, 0]


def test_ih_direct_negative_subdivide_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ih-direct", str(DATA / "cone_torus.json"), "--p", "0",
              "--subdivide", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "--subdivide" in err


def test_signature_verb_cp2(capsys):
    code, data, _ = run_json(capsys, "signature",
                             str(DATA / "pinched_torus_space.json"),
                             "--pairing", str(DATA / "cp2_minus_ball.json"))
    # pinched torus is 2-dimensional: Witt holds (l odd), n % 4 != 0 so all
    # signatures are reported as zero regardless of the pairing
    assert code == 0
    assert data["result"]["sigma_Mbar"] == 0


def test_modes_verb(capsys):
    code, data, _ = run_json(capsys, "modes", "--torus-dim", "2")
    assert code == 0
    assert data["result"]["total_dims"] == [0, 2, 4, 2, 0]


def test_hodge_verb(capsys):
    code, data, _ = run_json(capsys, "hodge", space_file(), "--p", "0",
                             "--degree", "2")
    assert code == 0
    assert data["result"]["weights"]["2"] == {
        "fibred_scattering": "0", "fibred_cusp": "0"}


def test_conifold_transition_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "conifold-transition", space_file())
    assert code == 0
    first = tmp_path / "ct1.json"
    first.write_text(out)
    code, out2, _ = run(capsys, "conifold-transition", str(first))
    assert code == 0
    original = json.loads(Path(space_file()).read_text())
    assert json.loads(out2) == original


def test_conifold_transition_json_result_is_the_plain_output(capsys):
    for stem in ("s2xt2_space", "pinched_torus_space", "st2xs1_space"):
        path = str(DATA / f"{stem}.json")
        code, plain, err = run(capsys, "conifold-transition", path)
        assert code == 0, err
        code, data, err = run_json(capsys, "conifold-transition", path)
        assert code == 0, err
        assert data["command"] == "conifold-transition"
        assert data["result"] == json.loads(plain), stem


def test_provenance_block(capsys):
    code, data, _ = run_json(capsys, "hi", space_file(), "--p", "0")
    assert code == 0
    (entry,) = data["inputs"]
    assert entry["path"] == space_file()
    assert len(entry["sha256"]) == 64
    assert data["options"] == {"p": [0]}
    code, data, _ = run_json(capsys, "hodge", space_file(), "--p", "0",
                             "--degree", "1")
    assert code == 0
    assert data["options"] == {"p": 0, "degrees": [1]}


def test_deterministic_output(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "--json", "table", space_file(),
                        "--q-range", "-1..2")
        outs.add(out)
    assert len(outs) == 1


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "table", str(tmp_path / "missing.json"))
    assert code == 2 and "missing.json" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "table", str(bad))
    assert code == 2 and "malformed JSON" in err
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "algebraic", "n": 4, "l": 1, "s": 2,
                                 "link_betti": [1, 1], "sigma_betti": [2, 4, 2],
                                 "m_betti": [1, 3, 3, 1], "beta_T": {}}))
    code, _, err = run(capsys, "hi", str(wrong), "--p", "0")
    assert code == 2 and ("beta" in err.lower() or "degree 0" in err)
    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps({"vertices": ["a", "b", "c"],
                                 "top_simplices": [["a", "b", "c"]],
                                 "boundary": [["a", "z"]]}))
    code, _, err = run(capsys, "homology", str(stray))
    assert code == 2 and "'z'" in err
    model = {"kind": "algebraic", "n": 4, "l": 1, "s": 2,
             "link_betti": [1, 1], "sigma_betti": [2, 4, 2],
             "m_betti": [1, 3, 3, 1]}
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps({**model, "beta_T": [[1, 1]]}))
    code, _, err = run(capsys, "hi", str(listed), "--p", "0")
    assert code == 2 and "beta_T" in err and "Traceback" not in err
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({**model, "beta_T": {"0": [["1/0", 1]]}}))
    code, _, err = run(capsys, "hi", str(zero), "--p", "0")
    assert code == 2 and "beta_T[0]" in err and "Traceback" not in err
    count = tmp_path / "count.json"
    count.write_text(json.dumps({"vertices": 5, "top_simplices": [[0, 1]]}))
    code, _, err = run(capsys, "homology", str(count))
    assert code == 2 and "vertices" in err and "Traceback" not in err
    triangle = {"vertices": ["a", "b", "c"], "top_simplices": [["a", "b", "c"]]}
    cases = [
        ("hi", {**model, "beta_T": {}, "link_betti": 5}, "link_betti"),
        ("hi", {**model, "beta_T": {}, "n": [4]}, "n"),
        ("hi", {**model, "beta_T": {}, "sigma_betti": [2, "x", 2]},
         "sigma_betti"),
        ("hi", {**model, "beta_T": {"zz": [[0]]}}, "beta_T"),
        ("homology", {**triangle, "orientation": 5}, "orientation"),
        ("homology", {**triangle, "top_simplices": [5]}, "top_simplices"),
        ("homology", {**triangle, "boundary": 5}, "boundary"),
        ("homology", {**triangle, "sigma": 5}, "sigma"),
        ("homology", {**triangle, "sigma": ["a"], "codim": "x"}, "codim"),
        ("hi", {**model, "beta_T": {}, "link_betti": [1, -1]}, "link_betti"),
        ("hi", {**model, "beta_T": {}, "sigma_betti": [2, -4, 2]},
         "sigma_betti"),
        ("hi", {**model, "beta_T": {}, "m_betti": [1, -3, 3, 1]}, "m_betti"),
        ("hi", {"kind": "isolated_cone", "link": [1, 1], "m_betti": [1, -1],
                "beta_T": {}}, "m_betti"),
        ("hi", {"kind": "suspension_product", "link": {"betti": [1, -1]},
                "sigma": [1, 1]}, "link.betti"),
        ("hi", {"kind": "suspension_product", "link": [1, 1],
                "sigma": [-1]}, "sigma"),
        ("hi", {**model, "beta_T": {}, "oriented": "false"}, "oriented"),
        ("hi", {**model, "beta_T": {}, "n": 4.5}, "n"),
        ("hi", {"kind": "isolated_cone", "link": [1, 1], "m_betti": [1, True],
                "beta_T": {}}, "m_betti"),
        ("hi", {"kind": "isolated_cone", "link": [2, 2], "m_betti": [1, 1],
                "beta_T": {"0": [[1, True]], "1": [[1, 1]]},
                "oriented": False}, "beta_T[0]"),
        ("homology", {**triangle, "top_simplices": [[]]}, "top_simplices"),
    ]
    # an unoriented suspension product loads without the duality check, and
    # verify --theorem duality refuses it
    unoriented = tmp_path / "unoriented.json"
    unoriented.write_text(json.dumps({"kind": "suspension_product",
                                      "link": [1, 1], "sigma": [1, 1],
                                      "oriented": False}))
    code, out, err = run(capsys, "verify", str(unoriented), "--theorem",
                         "duality", "--p", "0")
    assert code == 2 and out == "", err
    assert "duality requires a closed oriented model" in err, err
    code, _, err = run(capsys, "hi", str(unoriented), "--p", "0")
    assert code == 0, err
    for weight in ("1/0", "x"):
        code, out, err = run(capsys, "modes", "--torus-dim", "1",
                             "--weight", weight)
        assert code == 2 and out == "", (weight, err)
        assert "--weight" in err and "Traceback" not in err, (weight, err)
    for flag, argv in (("--torus-dim", ["--torus-dim", "-1"]),
                       ("--mode-cutoff", ["--torus-dim", "1",
                                          "--mode-cutoff", "0"])):
        with pytest.raises(SystemExit) as exc:
            main(["modes", *argv])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and flag in err, (flag, err)
    both = ("--degree", "1", "--degrees", "0..2")
    for argv, text in (
            (("ig", space_file(), "--k", "1", *both), "--degree or --degrees"),
            (("hodge", space_file(), "--p", "0", *both),
             "--degree or --degrees"),
            (("hi", space_file()), "missing --p or --p-range"),
            (("hodge", space_file()), "--p is required for hodge"),
            (("verify", space_file(), "--theorem", "duality"),
             "--p is required for --theorem duality")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", (argv, err)
        assert text in err and "Traceback" not in err, (argv, err)
    # model checks name the file once, whichever kind built the model
    probes = [
        ({"kind": "isolated_cone", "link": [1, 2], "m_betti": [1, 1],
          "beta_T": {"1": [[1, 0, 0]]}}, "is 1x3, expected 1x2"),
        ({"kind": "suspension_product", "link": [0, 1], "sigma": [1, 1]},
         ".link: must be nonempty"),
        ({"kind": "isolated_cone", "link": [0, 2], "m_betti": [1, 1],
          "beta_T": {}}, ".link: must be nonempty"),
        ({"kind": "suspension_product", "link": [1, 1], "sigma": [0]},
         ".sigma: must be nonempty"),
        ({"kind": "suspension_product", "link": [1, 1], "sigma": []},
         ".sigma: must be nonempty"),
        ({"kind": "isolated_cone", "link": [1, 1], "m_betti": [1, -1],
          "beta_T": {}}, "m_betti"),
        ({"kind": "isolated_cone", "link": [1, 1], "m_betti": [1, 1],
          "beta_T": {"0": [[1]], "1": [[5]]}}, "beta_T: Poincare-Lefschetz"),
        ({**model, "beta_T": {}, "link_betti": [2, 2, 1]},
         ": link_betti: homology in degree 2, above the dimension l = 1"),
        ({**model, "beta_T": {}, "sigma_betti": [1, 0, 0, 1]},
         ": sigma_betti: homology in degree 3, above the dimension s = 2"),
        ({**model, "beta_T": {}, "n": 1, "l": 2, "s": -2},
         ": s: negative dimension -2"),
        ({**model, "beta_T": {}, "n": 1, "l": -1, "s": 1},
         ": l: negative dimension -1"),
        ({**model, "beta_T": {"1": [[1, 0]]}},
         ".beta_T: block in degree 1 is 1x2, expected 3x6"),
        ({**model, "m_betti": [0, 1], "beta_T": {"0": [[1, 1]]}},
         ".m_betti: must be nonempty"),
    ]
    for i, (data, text) in enumerate(probes):
        f = tmp_path / f"probe{i}.json"
        f.write_text(json.dumps(data))
        code, _, err = run(capsys, "hi", str(f), "--p", "0")
        assert code == 2 and text in err and "Traceback" not in err, err
        assert err.count(str(f)) == 1, err
    # triangulation checks name the file once, then the field they concern
    sphere = {"vertices": ["a", "b", "c", "d"],
              "top_simplices": [["a", "b", "c"], ["a", "b", "d"],
                                ["a", "c", "d"], ["b", "c", "d"]]}
    ih_direct = ("ih-direct", "--p", "0")
    probes = [
        (ih_direct, {**triangle, "sigma": ["a"], "codim": 0}, ".codim"),
        (ih_direct, {**triangle, "vertices": ["a", "b", "c", "a"],
                     "sigma": ["a"]}, ".vertices"),
        (ih_direct, {**triangle, "sigma": ["z"]}, ".sigma"),
        (ih_direct, {**triangle, "top_simplices": [["a", "a", "c"]],
                     "sigma": ["a"]}, ".top_simplices"),
        (("homology",), {**sphere, "orientation": [2, 1, 1, 1]},
         ".orientation"),
        (("homology",), {**sphere, "orientation": [1, 1, 1, 1]},
         ": fundamental chain boundary leaks"),
        # the 5-vertex Moebius band, with its five boundary edges
        (("homology",), {"vertices": ["0", "1", "2", "3", "4"],
                         "top_simplices": [["0", "1", "2"], ["1", "2", "3"],
                                           ["2", "3", "4"], ["3", "4", "0"],
                                           ["4", "0", "1"]],
                         "boundary": [["0", "2"], ["1", "3"], ["2", "4"],
                                      ["3", "0"], ["4", "1"]]},
         ": complex is not orientable"),
        (("homology",), {**sphere, "boundary": [["a", "b", "c", "d"]]},
         ".boundary: boundary simplex ('a', 'b', 'c', 'd') not in complex"),
        (("homology",), {**triangle, "top_simplices": []},
         ": top_simplices must be a nonempty list"),
        (("homology",), [triangle], ": expected a JSON object"),
    ]
    for i, ((verb, *flags), data, text) in enumerate(probes):
        f = tmp_path / f"triangulation{i}.json"
        f.write_text(json.dumps(data))
        code, _, err = run(capsys, verb, str(f), *flags)
        assert code == 2 and f"{f}{text}" in err, err
        assert "Traceback" not in err and err.count(str(f)) == 1, err
    # a malformed pairing matrix exits 2 naming the field, whatever the space
    for i, (data, field) in enumerate((
            ({"degree": -1, "matrix": [[1]]}, "degree"),
            ({"degree": 2, "matrix": [[1, 2], [3, 1]]}, "matrix"))):
        f = tmp_path / f"pairing{i}.json"
        f.write_text(json.dumps(data))
        for stem in ("s2xt2_space", "st2xs1_space"):
            code, out, err = run(capsys, "signature", str(DATA / f"{stem}.json"),
                                 "--pairing", str(f))
            assert code == 2 and out == "", (field, stem, err)
            assert f"{f}.{field}" in err and "Traceback" not in err, err
    for i, (verb, data, field) in enumerate(cases):
        f = tmp_path / f"malformed{i}.json"
        f.write_text(json.dumps(data))
        argv = [verb, str(f)] + (["--p", "0"] if verb == "hi" else [])
        code, _, err = run(capsys, *argv)
        assert code == 2, (field, err)
        assert f".{field}" in err and "Traceback" not in err, (field, err)


def test_readme_command_line_examples_run(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    commands = [line for line in lines if line.startswith("strathom ")]
    assert commands
    for line in commands:
        argv = shlex.split(line.replace("$D", str(DATA)))[1:]
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.strip(), (line, err)


def test_file_link_is_read_beside_the_space_file(capsys, tmp_path,
                                                monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "cp2_minus_ball.json").write_text(
        (DATA / "cp2_minus_ball.json").read_text())
    (sub / "sp.json").write_text(json.dumps({
        "kind": "suspension_product", "link": {"file": "cp2_minus_ball.json"},
        "sigma": [1, 1]}))
    monkeypatch.chdir(tmp_path)
    code, outer, err = run_json(capsys, "hi", "sub/sp.json", "--p", "0")
    assert code == 0, err
    monkeypatch.chdir(sub)
    code, inner, err = run_json(capsys, "hi", "sp.json", "--p", "0")
    assert code == 0, err
    assert outer["result"] == inner["result"]


def test_regular_part_homology_above_n_exits_2(capsys, tmp_path):
    f = tmp_path / "high.json"
    f.write_text(json.dumps({"kind": "algebraic", "n": 2, "l": 1, "s": 0,
                             "link_betti": [1, 1], "sigma_betti": [1],
                             "m_betti": [1, 1, 0, 0, 0, 2],
                             "beta_T": {"0": [[1]]}}))
    for argv in (["ih", str(f), "--q", "5"], ["hi", str(f), "--p", "-1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "m_betti" in err and out == "", (argv, err)


def test_signature_and_verify_signature_share_one_report(capsys):
    pairing = str(DATA / "cp2_minus_ball.json")
    for space in (space_file(), str(DATA / "pinched_torus_space.json")):
        code_s, sig, _ = run_json(capsys, "signature", space,
                                  "--pairing", pairing)
        code_v, ver, _ = run_json(capsys, "verify", space, "--theorem",
                                  "signature", "--pairing", pairing)
        assert code_s == code_v == 0
        assert sig["result"] == ver["result"]
        assert (sig["command"], ver["command"]) == ("signature", "verify")


def test_lefschetz_check_runs_at_load_on_oriented_models(capsys, tmp_path):
    # one boundary circle cannot bound a surface with H = (1, 1)
    probe = {"kind": "isolated_cone", "link": [1, 1], "m_betti": [1, 1],
             "beta_T": {"0": [[1]], "1": [[5]]}}
    f = tmp_path / "probe.json"
    f.write_text(json.dumps(probe))
    code, out, err = run(capsys, "verify", str(f), "--theorem", "duality",
                         "--p", "0")
    assert code == 2 and out == "" and "Traceback" not in err
    assert str(f) in err and "beta_T" in err, err
    f.write_text(json.dumps({**probe, "oriented": False}))
    code, _, err = run(capsys, "hi", str(f), "--p", "0")
    assert code == 0, err


def test_verify_refuses_flags_its_theorem_does_not_read(capsys):
    pairing = str(DATA / "ixs1xt2.json")
    for theorem, flag, value in (("duality", "--degrees", "0..1"),
                                 ("signature", "--degrees", "0..1"),
                                 ("hom", "--pairing", pairing),
                                 ("duality", "--pairing", pairing),
                                 ("signature", "--p", "0")):
        argv = ["verify", space_file(), "--theorem", theorem, flag, value]
        argv += (["--pairing", pairing] if theorem == "signature"
                 else ["--p", "0"])
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", (theorem, flag, err)
        assert flag in err and theorem in err, (theorem, flag, err)


def test_module_entry_point_subprocess():
    import os
    import subprocess
    import sys
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(DATA.parent.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "strathom.cli", "--json", "hi", space_file(),
         "--p", "0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["hi"]["0"] == [0, 2, 4, 2, 0]
    # runpy warns when the module it runs is already in sys.modules
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


def test_cli_import_skips_dataclasses_and_inspect():
    """Each command runs in a fresh interpreter, so what `import
    strathom.cli` loads is paid on every call; `dataclasses` and `inspect`
    are not needed by any command."""
    import os
    import subprocess
    import sys
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(DATA.parent.parent), env.get("PYTHONPATH")) if p)
    probe = ("import sys, strathom.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the layers whose functions the benchmark's span tracer wraps; it reads
# each from sys.modules right after `import strathom.cli`
_TRACER_LAYERS = {"cli", "io", "stratified", "qlinalg", "chains",
                  "simplicial", "signatures", "modes"}


@pytest.mark.parametrize("argv, ran", [
    (["hi", "s2xt2_space.json", "--p", "0"],
     {"chains", "cli", "io", "qlinalg", "stratified"}),
    (["homology", "ixs1xt2.json"],
     {"chains", "cli", "io", "qlinalg", "simplicial"}),
], ids=["hi", "homology"])
def test_a_verb_runs_only_the_layers_it_calls(argv, ran):
    """`import strathom.cli` registers every layer and runs only `cli`;
    `cli.main` then runs the modules its verb reads.  A registered module
    that never ran is still an `importlib.util._LazyModule`."""
    import os
    import subprocess
    import sys
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(DATA.parent.parent), env.get("PYTHONPATH")) if p)
    probe = (
        "import importlib.util, json, sys\n"
        "def layers(lazy):\n"
        "    return sorted(n.removeprefix('strathom.')\n"
        "                  for n, m in sys.modules.items()\n"
        "                  if n.startswith('strathom.') and\n"
        "                  isinstance(m, importlib.util._LazyModule) == lazy)\n"
        "import strathom.cli\n"
        "on_import = layers(False), layers(True)\n"
        "code = strathom.cli.main(sys.argv[1:])\n"
        "sys.stderr.write(json.dumps([on_import, code, layers(False)]))\n")
    argv = [argv[0], str(DATA / argv[1]), *argv[2:]]
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, env=env)
    (ran_on_import, waiting), code, ran_by_verb = json.loads(proc.stderr)
    assert code == 0
    assert ran_on_import == ["cli"]
    assert _TRACER_LAYERS <= set(ran_on_import + waiting)
    assert set(ran_by_verb) == ran


def test_sigma_triangulation_without_sigma_rejected(capsys, tmp_path):
    f = tmp_path / "plain.json"
    f.write_text(json.dumps({"vertices": ["a", "b"],
                             "top_simplices": [["a", "b"]]}))
    code, _, err = run(capsys, "ih-direct", str(f), "--p", "0")
    assert code == 2 and "sigma" in err


def _witt_result(sigma, mid, ct, hi_x, hi_z, ih_x, ih_z):
    return {"ok": True, "all_equal": True, "sigma_Mbar": sigma,
            "sigma_perverse_CT": sigma, "sigma_IH_X": sigma,
            "sigma_HI_X": sigma, "sigma_Z": sigma,
            "witt": {"is_witt": True, "reason": "link-dim-odd"},
            "middle_degree": mid, "ct_image_dim": ct,
            "hi_middle_dim_X": hi_x, "hi_middle_dim_Z": hi_z,
            "ih_middle_dim_X": ih_x, "ih_middle_dim_Z": ih_z}


# (space, pairing) -> (exit code, --json result), as computed with the
# pairing built eagerly on load
_SIGNATURE_RESULTS = {
    ("s2xt2_space", "ixs1xt2"): (0, _witt_result(0, 2, 0, 4, 6, 2, 0)),
    ("s2xt2_space", "cp2_minus_ball"): (0, _witt_result(1, 2, 0, 4, 6, 2, 0)),
    ("pinched_torus_space", "ixs1xt2"): (0, _witt_result(0, 1, 0, 2, 2, 0, 0)),
    ("pinched_torus_space", "cp2_minus_ball"):
        (0, _witt_result(0, 1, 0, 2, 2, 0, 0)),
    **{("st2xs1_space", p): (1, {
        "ok": False, "error": "the space fails the Witt condition; "
        "middle-perversity signatures are not defined"})
       for p in ("ixs1xt2", "cp2_minus_ball")},
}


def test_cup_pairing_runs_only_where_sigma_is_read(capsys, monkeypatch,
                                                   tmp_path):
    from strathom import signatures, simplicial

    calls = []
    original = simplicial.cup_pairing

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # signatures binds its own reference when it first runs; patching it
    # first runs it with the original bound, so undoing restores it
    for mod in (signatures, simplicial):
        monkeypatch.setattr(mod, "cup_pairing", counted)
    for (space, pairing), (code, result) in _SIGNATURE_RESULTS.items():
        for verb in (["signature"], ["verify", "--theorem", "signature"]):
            before = len(calls)
            got, data, err = run_json(capsys, verb[0], str(DATA / f"{space}.json"),
                                      *verb[1:], "--pairing",
                                      str(DATA / f"{pairing}.json"))
            assert (got, data["result"]) == (code, result), (space, err)
            # sigma(Mbar) is read only on the Witt space with n = 4
            assert len(calls) - before == (space == "s2xt2_space"), \
                (space, pairing, verb)
    # a broken pairing triangulation still exits 2 on a non-Witt space
    broken = json.loads((DATA / "cp2_minus_ball.json").read_text())
    broken["boundary"].append(["1", "2", "zz"])
    f = tmp_path / "broken.json"
    f.write_text(json.dumps(broken))
    code, out, err = run(capsys, "signature", str(DATA / "st2xs1_space.json"),
                         "--pairing", str(f))
    assert code == 2 and out == "" and "'zz'" in err, err


def test_signature_checks_the_pairing_degree_first(capsys, monkeypatch,
                                                   tmp_path):
    """On the Witt space S^2 x T^2 (n = 4) a pairing off the middle degree
    2 is refused as such, exit 1, and a triangulation of the wrong
    dimension has no cup pairing built."""
    from strathom import signatures

    def refuse(*args):
        raise AssertionError("cup pairing built before the degree check")

    monkeypatch.setattr(signatures, "cup_pairing", refuse)
    matrix = {"degree": 1, "matrix": [[0, 1], [-1, 0]]}
    sphere = {"vertices": ["a", "b", "c", "d"], "boundary": [],
              "top_simplices": [["a", "b", "c"], ["a", "b", "d"],
                                ["a", "c", "d"], ["b", "c", "d"]]}
    for i, data in enumerate((matrix, sphere)):
        f = tmp_path / f"pairing{i}.json"
        f.write_text(json.dumps(data))
        for verb in (["signature"], ["verify", "--theorem", "signature"]):
            code, out, err = run_json(capsys, verb[0], space_file(), *verb[1:],
                                      "--pairing", str(f))
            assert (code, out["result"]) == (1, {
                "ok": False,
                "error": "pairing is in degree 1, middle degree is 2"}), err
