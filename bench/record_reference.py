#!/usr/bin/env python3
"""Record bench/reference.json from the current sources.

    python3 bench/record_reference.py

Runs every command of every workload for the default seed in-process and
stores the hash of each `--json` result under the command's key.  Every
command must first pass the independent checks.  Re-record only for a
change that is meant to alter results, and review the diff.
"""

from __future__ import annotations

import json
import os
import sys

import check
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    results = {}
    for name in workloads.WORKLOADS:
        workdir = run.WORK / f"reference-{name}"
        workload = workloads.generate(name, run.DEFAULT_SEED, workdir, run.SRC)
        previous = os.getcwd()
        os.chdir(workdir)
        try:
            for cmd in workload.commands:
                code, out, err = run.run_inprocess(cmd)
                problems = check.check(cmd, code, out, err, {})
                if problems:
                    sys.stderr.write(f"error: {cmd.key}: {'; '.join(problems)}\n")
                    return 1
                results[cmd.key] = check.result_hash(json.loads(out)["result"])
        finally:
            os.chdir(previous)
    check.REFERENCE.write_text(json.dumps(
        {"seed": run.DEFAULT_SEED, "results": dict(sorted(results.items()))},
        indent=1) + "\n")
    print(f"recorded {len(results)} results to {check.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
