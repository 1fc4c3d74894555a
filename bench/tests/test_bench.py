"""Tests of the benchmark's own machinery: generator, checker and tracer."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _report(verb, result):
    return json.dumps({"command": verb, "result": result})


def _by_key(workload, key):
    return next(c for c in workload.commands if c.key == key)


def test_checker_flags_corrupted_result_and_exit_code(tmp_path):
    wl = workloads.generate("triangulation", 1, tmp_path / "w", run.SRC)
    cmd = _by_key(wl, "homology cp2_minus_ball")
    good = {"betti": [1, 0, 1, 0, 0]}
    reference = {cmd.key: check.result_hash(good)}
    assert check.check(cmd, 0, _report("homology", good), "", reference) == []
    corrupted = {"betti": [1, 0, 2, 0, 0]}
    problems = check.check(cmd, 0, _report("homology", corrupted), "", reference)
    assert any("betti" in p for p in problems)
    assert any("reference" in p for p in problems)
    assert check.check(cmd, 1, _report("homology", good), "", reference) \
        == ["exit 1, expected 0"]
    assert check.check(cmd, 0, "not json", "", reference)
    assert check.check(cmd, None, "", "", reference) == ["timed out"]
    assert check.check(cmd, 0, _report("homology", good),
                       "Traceback (most recent call last):", reference)


def test_checker_expects_refusal_for_non_witt_space(tmp_path):
    wl = workloads.generate("cup-pairing", 1, tmp_path / "w", run.SRC)
    cmd = _by_key(wl, "signature st2xs1_space cp2_minus_ball")
    refusal = {"ok": False, "error": "the space fails the Witt condition"}
    assert check.check(cmd, 1, _report("signature", refusal), "", {}) == []
    assert check.check(cmd, 0, _report("signature", {"ok": True}), "", {})


def test_generator_is_deterministic_per_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7, tmp_path / "a", run.SRC)
        b = workloads.generate(name, 7, tmp_path / "b", run.SRC)
        assert a.inputs == b.inputs, name
        assert a.commands == b.commands, name
    c = workloads.generate("triangulation", 8, tmp_path / "c", run.SRC)
    assert c.inputs != a.inputs


def _results(workload, workdir, keys, monkeypatch):
    monkeypatch.chdir(workdir)
    out = {}
    for key in keys:
        cmd = _by_key(workload, key)
        code, stdout, stderr = run.run_inprocess(cmd)
        assert check.check(cmd, code, stdout, stderr, {}) == [], key
        out[key] = json.loads(stdout)["result"]
    return out


def test_relabeled_results_agree_across_seeds(tmp_path, monkeypatch):
    # the cheap triangulation and cup-pairing commands; the large ones are
    # covered by the benchmark runs themselves
    keys = {"triangulation": ["homology cp2_minus_ball",
                              "ih-direct cone_torus -3..4"],
            "cup-pairing": ["signature s2xt2_space cp2_minus_ball"]}
    for name, names in keys.items():
        seen = []
        for seed in (1, 2):
            workdir = tmp_path / f"{name}-{seed}"
            wl = workloads.generate(name, seed, workdir, run.SRC)
            seen.append((wl.inputs, _results(wl, workdir, names, monkeypatch)))
        assert seen[0][0] != seen[1][0]
        assert seen[0][1] == seen[1][1]


def test_self_times_on_synthetic_span_tree():
    S = spans.Span
    tree = [S(0, None, 0, "cli", "main", 0, 100),
            S(1, 0, 0, "io", "load_space", 10, 30),
            S(2, 0, 0, "stratified", "ih_table", 40, 90),
            S(3, 2, 0, "qlinalg", "rank", 50, 60),
            S(4, 2, 0, "stratified", "annotate", 70, 75)]
    assert spans.self_times(tree) == {0: 30, 1: 20, 2: 35, 3: 10, 4: 5}
    # children that overlap, or reach past the parent, count once
    odd = [S(0, None, 0, "a", "f", 0, 10), S(1, 0, 0, "b", "g", 2, 6),
           S(2, 0, 0, "b", "h", 4, 12)]
    assert spans.self_times(odd)[0] == 2


def test_tracer_wraps_every_binding_and_restores(tmp_path, monkeypatch):
    from strathom import qlinalg, stratified
    originals = (qlinalg.rank, stratified.rank)
    wl = workloads.generate("mv-sweep", 1, tmp_path / "w", run.SRC)
    monkeypatch.chdir(tmp_path / "w")
    tracer = spans.Tracer()
    with tracer:
        assert stratified.rank is qlinalg.rank is not originals[0]
        code, _, _ = run.run_inprocess(_by_key(wl, "table s2xt2_space"))
        tracer.end_command()
    assert code == 0
    assert (qlinalg.rank, stratified.rank) == originals
    m = tracer.metrics()
    assert m["cli.calls"] == 1
    # a table command makes every qlinalg call from inside stratified
    assert m["stratified.rank_calls"] == m["qlinalg.calls"] > 0
    assert m["stratified.cache_entries"] > 0


def test_scale_factors_use_the_reference_runs_around_each_child():
    reference = [run.REFERENCE_S * x for x in (1, 2, 4, 8, 16, 32)]
    # the first child sees runs 0-2; the third runs 1-4, median (4+8)/2; the
    # last, before the final reference run 5, sees runs 3-5
    assert run.scale_factors(reference, [0, 2, 4]) == \
        pytest.approx([1 / 2, 1 / 6, 1 / 16])


def test_reference_task_is_fixed():
    import reference_task
    assert reference_task.reference_rank() == reference_task.EXPECTED_RANK
