"""Rewrite ``pins.json``: the SHA-256 of every input file and ``solve`` stdout at the default seed.

Usage, from the repository root, on a commit whose output is trusted::

    python3 perfbench/pin.py

Only a change that is meant to alter the CLI's bytes may re-pin; the
benchmark counts every mismatch as a failed call.
"""

from __future__ import annotations

import json

import run


def main() -> int:
    pins: dict = {"seed": run.DEFAULT_SEED}
    for workload in run.WORKLOADS.values():
        if not workload.files:
            continue
        bench = run.Run(workload, run.DEFAULT_SEED, 0, trace=False)
        bench.setup()
        files = {f.name: run.sha256(bench.path(f.name).read_bytes()) for f in workload.files}
        stdout = {}
        for call in workload.calls:
            out = bench.runner.fvr(bench.args(call))
            error = run.check_solve(out.stdout.decode("utf-8"), call, bench.props[call.file])
            if out.exit_code != 0 or error:
                raise SystemExit(f"{call.label}: exit {out.exit_code}, {error}")
            stdout[call.label] = run.sha256(out.stdout)
        pins[workload.name] = {"files": files, "stdout": stdout}
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
