import json
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


def test_verify_coh(capsys):
    code, data, _ = run_json(capsys, "verify", space_file(), "--theorem",
                             "coh", "--p", "1")
    assert code == 0
    assert data["result"]["ok"] is True
    # coh is an alias of hom: same verdicts for the same p on every model
    for model in ("s2xt2_space", "pinched_torus_space", "st2xs1_space"):
        for p in range(-1, 3):
            path = str(DATA / f"{model}.json")
            verdicts = []
            for theorem in ("hom", "coh"):
                code, data, _ = run_json(capsys, "verify", path, "--theorem",
                                         theorem, "--p", str(p))
                verdicts.append((code, data["result"]))
            assert verdicts[0] == verdicts[1], (model, p)
    _, text, _ = run(capsys, "verify", space_file(), "--theorem", "coh",
                     "--p", "1")
    assert "same check as hom" in text


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


def test_provenance_block(capsys):
    code, data, _ = run_json(capsys, "hi", space_file(), "--p", "0")
    assert code == 0
    (entry,) = data["inputs"]
    assert entry["path"] == space_file()
    assert len(entry["sha256"]) == 64
    assert data["options"] == {"p": [0]}


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


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    import strathom.cli
    from strathom.stratified import InternalInconsistency

    def corrupt(*args):
        raise InternalInconsistency("shortcut disagrees with assembly")

    monkeypatch.setattr(strathom.cli, "hi_dims", corrupt)
    code, out, err = run(capsys, "hi", space_file(), "--p", "0")
    assert code == 3
    assert "shortcut disagrees" in err and "Traceback" not in err
    assert out == ""


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


def test_sigma_triangulation_without_sigma_rejected(capsys, tmp_path):
    f = tmp_path / "plain.json"
    f.write_text(json.dumps({"vertices": ["a", "b"],
                             "top_simplices": [["a", "b"]]}))
    code, _, err = run(capsys, "ih-direct", str(f), "--p", "0")
    assert code == 2 and "sigma" in err
