"""Output checker: one verdict per CLI command.

A command fails on an unexpected exit code, a traceback, a timeout,
output that is not the `--json` report of its verb, a value that differs
from an independent reference carried in `Command.expect`, or a result
whose hash differs from the recorded `reference.json` entry for its key.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def result_hash(result) -> str:
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()).hexdigest()


def load_reference(path: Path = REFERENCE) -> dict:
    """key -> result hash, recorded for the default seed."""
    return json.loads(path.read_text())["results"]


def check(cmd, code, stdout: str, stderr: str, reference: dict) -> list[str]:
    """Problems with one command's outcome; empty when it is correct.

    `code` is the exit code, or None when the command timed out.
    """
    if code is None:
        return ["timed out"]
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    want_exit = cmd.expect.get("exit", 0)
    if code != want_exit:
        problems.append(f"exit {code}, expected {want_exit}")
    try:
        report = json.loads(stdout)
        result = report["result"]
        if report["command"] != cmd.verb:
            problems.append(f"report is for {report['command']!r}")
    except (json.JSONDecodeError, KeyError, TypeError):
        return problems + ["stdout is not a --json report"]
    problems += _independent(cmd.expect, result)
    want = reference.get(cmd.key)
    if want is not None and result_hash(result) != want:
        problems.append("result differs from the recorded reference")
    return problems


def _independent(expect: dict, result: dict) -> list[str]:
    problems = []
    if "betti" in expect and result.get("betti") != expect["betti"]:
        problems.append(f"betti {result.get('betti')} != {expect['betti']}")
    if "ih" in expect and result.get("ih") != expect["ih"]:
        problems.append("ih sweep differs from the reference sweep")
    if "ok" in expect and result.get("ok") is not expect["ok"]:
        problems.append(f"verdict ok={result.get('ok')}")
    if "sigma_Mbar" in expect and result.get("sigma_Mbar") != expect["sigma_Mbar"]:
        problems.append(f"sigma {result.get('sigma_Mbar')} != "
                        f"{expect['sigma_Mbar']}")
    if "error_contains" in expect and \
            expect["error_contains"] not in str(result.get("error", "")):
        problems.append("missing the not-applicable error")
    return problems
