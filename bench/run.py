#!/usr/bin/env python3
"""Benchmark of the strathom CLI.

    python3 bench/run.py --workload mv-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; nothing needs installing.  The
runner writes the workload's seeded inputs under `.bench_work/`, then:

* `--trace 0`: a closed loop with one client.  Each command is a fresh
  `python -m strathom` child, started only after the previous one exits.
  Passes over the command list repeat while the next one still fits in
  `--seconds`.  Prints the end-to-end metrics of BENCHMARK.json.
* `--trace 1`: the same command lists in-process through
  `strathom.cli.main`, alternating an untraced pass and a pass with timing
  wrappers around each layer's public functions.  Prints the per-layer
  metrics of BENCHMARK.json; the gap between the two kinds of pass is the
  tracing overhead.

End-to-end metrics (medians over the passes of one run):

* wall_s       wall time of one pass over the command list (the sum of
               its command latencies);
* cmd_p50_s    median, and cmd_p90_s the 90th percentile, of the latency
               of every command of the run, from spawn to exit;
* cpu_s        user plus system CPU time of the children of one pass;
* peak_rss_mb  highest child maximum resident set size in one pass;
* setup_s      from spawning a fresh interpreter to the return of
               `import strathom.cli`, the cost every command pays first.

Times are given at a reference host speed.  On a shared host the same
command runs at speeds that drift by a fifth or more over seconds and
minutes, more than a regression bound, while children started close
together run at nearly the same speed.  So `reference_task.py`, a fixed
child doing the same kind of work without any strathom code, runs at the
start, after every PROBE_EVERY_S seconds of children, and at the end; each
child's times are multiplied by REFERENCE_S over the median of the two
reference runs before it and the two after it.  The record keeps the
unscaled values and every reference and child time.

Every command's output is checked (check.py); the error rate is `failed`
over `attempted`.  The last stdout line is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  A longer record (environment, input
hashes, sample counts, quartiles, latency per command, failures) goes to
`.bench_work/results/`.  The benchmark's own tests: `python3 -m pytest
bench/tests`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import check
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
# Fresh interpreters timed for setup_s, half before and half after the
# passes, so that the median spans the run rather than one moment of it.
SETUP_SAMPLES = 10
COMMAND_TIMEOUT_S = 45     # the slowest command, homology of ixs1xt2, takes ~8 s
MIN_PASSES = 2          # a median of passes even when one pass nearly fills a run
IMPORT_PROBE = ("import time; t = time.monotonic_ns(); import strathom.cli; "
                "print(t, time.monotonic_ns())")
REFERENCE_TASK = Path(__file__).with_name("reference_task.py")
# Spawn-to-exit seconds of the reference task at the reference speed: about
# its median on the host the bounds were set on (Intel Xeon VM, 2 vCPUs,
# Python 3.11).
REFERENCE_S = 0.45
PROBE_EVERY_S = 1.5     # seconds of children between two reference runs


# ---------------------------------------------------------------------------
# statistics

def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summary(values) -> dict:
    """Sample count and quartiles, kept so later runs can compare spreads."""
    quartiles = [values[0]] * 3 if len(values) == 1 else \
        statistics.quantiles(values, n=4, method="inclusive")
    return {"samples": len(values), "quartiles": quartiles}


# ---------------------------------------------------------------------------
# children

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, cwd: Path, env: dict, timeout: float):
    """Run one child; returns (exit code or None on timeout, seconds from
    spawn to exit, user+system CPU seconds, max RSS in KiB, stdout, stderr)."""
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                 stdout=out, stderr=err)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            child.kill()
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    code = None if timed_out.is_set() else child.returncode
    return (code, elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            stdout, stderr)


class Timeline:
    """Runs children one after another, with a reference run before the
    first, after every PROBE_EVERY_S seconds of children, and at close()."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir, self.env = workdir, env
        self.reference = []     # spawn-to-exit seconds of each reference run
        self.since = 0.0
        self.probe()

    def probe(self):
        code, elapsed, _, _, out, err = run_child(
            [sys.executable, str(REFERENCE_TASK)], self.workdir, self.env,
            COMMAND_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"the reference task failed: {out}{err}")
        self.reference.append(elapsed)
        self.since = 0.0

    def run(self, argv) -> tuple:
        """run_child's outcome, and the slot: the index of the reference run
        before this child."""
        outcome = run_child(argv, self.workdir, self.env, COMMAND_TIMEOUT_S)
        slot = len(self.reference) - 1
        self.since += outcome[1]
        if self.since >= PROBE_EVERY_S:
            self.probe()
        return outcome, slot

    def close(self):
        if self.since:
            self.probe()


def scale_factors(reference, slots) -> list[float]:
    """Factor that brings a child's times to the reference speed.  The
    child ran between reference[slot] and reference[slot + 1]; one short
    reference run is too noisy alone, so take the median of those two and
    the next one out on each side (fewer at the ends of the run)."""
    return [REFERENCE_S / statistics.median(reference[max(0, i - 1):i + 3])
            for i in slots]


def measure_setup(timeline: Timeline, samples: int) -> tuple[list, list, list]:
    """Spawn-to-import and import-only seconds of fresh interpreters, and
    their timeline slots."""
    setup, imports, slots = [], [], []
    for _ in range(samples):
        spawn = time.monotonic_ns()
        (code, _, _, _, out, err), slot = timeline.run(
            [sys.executable, "-c", IMPORT_PROBE])
        if code != 0:
            raise RuntimeError(f"importing strathom.cli failed: {err.strip()}")
        t0, t1 = (int(x) for x in out.split())
        setup.append((t1 - spawn) / 1e9)
        imports.append((t1 - t0) / 1e9)
        slots.append(slot)
    return setup, imports, slots


# ---------------------------------------------------------------------------
# untraced closed loop

def subprocess_pass(commands, timeline: Timeline, reference: dict):
    """One pass, unscaled: latencies, CPU seconds and slots per command."""
    latencies, cpu, slots, rss, failures = [], [], [], 0, []
    for cmd in commands:
        (code, elapsed, cpu_s, maxrss, out, err), slot = timeline.run(
            [sys.executable, "-m", "strathom", "--json", *cmd.argv])
        latencies.append(elapsed)
        cpu.append(cpu_s)
        slots.append(slot)
        rss = max(rss, maxrss)
        problems = check.check(cmd, code, out, err, reference)
        if problems:
            failures.append({"key": cmd.key, "problems": problems})
    return {"latencies": latencies, "cpu": cpu, "slots": slots,
            "peak_rss_mb": rss / 1024, "failures": failures}


def scaled(p: dict, scales: list) -> dict:
    """A pass with its times brought to the reference speed."""
    latencies = [t * s for t, s in zip(p["latencies"], scales)]
    return dict(p, latencies=latencies, wall_s=sum(latencies),
                cpu_s=sum(t * s for t, s in zip(p["cpu"], scales)))


def timed_run(workload, workdir: Path, seconds: float, reference: dict) -> dict:
    timeline = Timeline(workdir, child_env())
    setup, _, setup_slots = measure_setup(timeline, SETUP_SAMPLES // 2)
    raw_passes, spent = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        raw_passes.append(subprocess_pass(workload.commands, timeline, reference))
        spent.append(time.perf_counter() - began)
        if len(raw_passes) >= MIN_PASSES and \
                time.perf_counter() - start + statistics.median(spent) > seconds:
            break
    more, _, more_slots = measure_setup(timeline, SETUP_SAMPLES - len(setup))
    timeline.close()
    raw_setup, setup_slots = setup + more, setup_slots + more_slots
    setup = [t * s for t, s in
             zip(raw_setup, scale_factors(timeline.reference, setup_slots))]
    passes = [scaled(p, scale_factors(timeline.reference, p["slots"]))
              for p in raw_passes]
    raw = [scaled(p, [1.0] * len(p["slots"])) for p in raw_passes]
    latencies = [x for p in passes for x in p["latencies"]]
    raw_latencies = [x for p in raw for x in p["latencies"]]
    per_pass = {
        "wall_s": [p["wall_s"] for p in passes],
        "cmd_p50_s": [percentile(p["latencies"], 50) for p in passes],
        "cmd_p90_s": [percentile(p["latencies"], 90) for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    values = {name: statistics.median(v) for name, v in per_pass.items()}
    values["cmd_p50_s"] = percentile(latencies, 50)
    values["cmd_p90_s"] = percentile(latencies, 90)
    values["setup_s"] = statistics.median(setup)
    detail = {name: summary(v) for name, v in per_pass.items()}
    for name in ("cmd_p50_s", "cmd_p90_s"):
        detail[name]["commands"] = len(latencies)
    detail["setup_s"] = summary(setup)
    by_command = {cmd.key: statistics.median(p["latencies"][i] for p in passes)
                  for i, cmd in enumerate(workload.commands)}
    failures = [f for p in passes for f in p["failures"]]
    unscaled = {
        "wall_s": statistics.median(p["wall_s"] for p in raw),
        "cmd_p50_s": percentile(raw_latencies, 50),
        "cmd_p90_s": percentile(raw_latencies, 90),
        "cpu_s": statistics.median(p["cpu_s"] for p in raw),
        "setup_s": statistics.median(raw_setup),
    }
    return {"values": values, "detail": detail, "passes": len(passes),
            "attempted": len(latencies), "failures": failures,
            "latency_by_command_s": by_command, "unscaled": unscaled,
            "reference_task_s": dict(summary(timeline.reference),
                                     at_reference_speed=REFERENCE_S),
            "timeline": {"reference_s": timeline.reference,
                         "setup": list(zip(raw_setup, setup_slots)),
                         "passes": [list(zip(p["latencies"], p["cpu"], p["slots"]))
                                    for p in raw_passes]}}


# ---------------------------------------------------------------------------
# traced run

def run_inprocess(cmd) -> tuple:
    """(exit code, stdout, stderr) of one command run through cli.main."""
    import strathom.cli as cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["--json", *cmd.argv])
        except SystemExit as e:
            code = e.code
        except Exception:  # a crash is a failed command, not a dead run
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def inprocess_pass(commands, reference: dict, tracer=None):
    failures = []
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.command(i)
        code, out, err = run_inprocess(cmd)
        if tracer is not None:
            tracer.end_command()
        problems = check.check(cmd, code, out, err, reference)
        if problems:
            failures.append({"key": cmd.key, "problems": problems})
    return time.perf_counter() - start, failures


def traced_run(workload, workdir: Path, seconds: float, reference: dict,
               units: dict) -> dict:
    _, imports, _ = measure_setup(Timeline(workdir, child_env()), SETUP_SAMPLES)
    plain, traced, layer_passes, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        while True:
            wall, fails = inprocess_pass(workload.commands, reference)
            plain.append(wall)
            tracer = Tracer()
            with tracer:
                wall, more = inprocess_pass(workload.commands, reference, tracer)
            traced.append(wall)
            layer_passes.append(tracer.metrics())
            failures += fails + more
            attempted += 2 * len(workload.commands)
            step = statistics.median(plain) + statistics.median(traced)
            if time.perf_counter() - start + step > seconds:
                break
        tracer.dump(workdir / "spans.json")
    finally:
        os.chdir(previous)
    per_pass = {name: [m.get(name, 0) for m in layer_passes] for name in units}
    per_pass["setup.import_s"] = imports
    per_pass["trace.overhead_ratio"] = [t / p - 1 for t, p in zip(traced, plain)]
    # counts repeat exactly from pass to pass; median_low keeps them whole
    values = {name: (statistics.median_low(v) if units[name] in ("count", "bytes")
                     else statistics.median(v))
              for name, v in per_pass.items()}
    values["trace.overhead_ratio"] = \
        statistics.median(traced) / statistics.median(plain) - 1
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")
               and k != "qlinalg.span_accept_ratio"} for m in layer_passes]
    detail = {name: summary(v) for name, v in per_pass.items()}
    detail["untraced_pass_s"] = summary(plain)
    detail["traced_pass_s"] = summary(traced)
    return {"values": values, "detail": detail, "passes": len(traced),
            "counts_repeat": all(c == counts[0] for c in counts),
            "attempted": attempted, "failures": failures}


# ---------------------------------------------------------------------------
# environment record

def environment() -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "strathom" / "cli.py").is_file():
        sys.stderr.write(f"error: no strathom sources under {SRC}; run from a "
                         "source checkout\n")
        return 2
    kinds = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in kinds}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    sys.path.insert(0, str(SRC))
    load_before = os.getloadavg()
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.generate(args.workload, args.seed, workdir, SRC)
    reference = check.load_reference()
    if args.trace:
        run = traced_run(workload, workdir, args.seconds, reference, units)
    else:
        run = timed_run(workload, workdir, args.seconds, reference)
    load_after = os.getloadavg()

    failed = len(run["failures"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "inputs": workload.inputs, "commands": len(workload.commands),
        "passes": run["passes"], "attempted": run["attempted"],
        "failed": failed, "error_rate": failed / run["attempted"],
        "metrics": {name: dict(value=run["values"][name], unit=unit,
                               **run["detail"].get(name, {}))
                    for name, unit in units.items()},
        "failures": run["failures"][:50],
    }
    if args.trace:
        record["counts_repeat"] = run["counts_repeat"]
        record["untraced_pass_s"] = run["detail"]["untraced_pass_s"]
        record["traced_pass_s"] = run["detail"]["traced_pass_s"]
    else:
        record["latency_by_command_s"] = run["latency_by_command_s"]
        record["unscaled"] = run["unscaled"]
        record["reference_task_s"] = run["reference_task_s"]
        record["timeline"] = run["timeline"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={run['passes']} commands/pass={len(workload.commands)} "
          f"attempted={run['attempted']} failed={failed} "
          f"error_rate={record['error_rate']:.4g}")
    for name, m in record["metrics"].items():
        n = m.get("commands", m.get("samples", ""))
        raw = record.get("unscaled", {}).get(name)
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} n={n}"
              + ("" if raw is None else f"  unscaled {raw:.6g}"))
    for f in run["failures"][:10]:
        print(f"  FAIL {f['key']}: {'; '.join(f['problems'])}")
    print(f"# record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"],
                      "failed": failed,
                      "metrics": {name: {"value": run["values"][name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
