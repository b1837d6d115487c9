"""Rewrite ``reference.json``: the exit code, line count and SHA-256 of the
stdout of one untraced sample of every workload.

    python3 bench/make_reference.py

Output is byte-identical across commits unless a verdict or the report
format changes on purpose, so a performance change never needs this.
"""

import hashlib
import json

from run import BENCH, RUN_LIMIT_S, WORKLOADS, _now_ns, spawn, verify_argv

reference = {}
for workload in WORKLOADS:
    deadline = _now_ns() + RUN_LIMIT_S * 10**9
    sample, stdout, _ = spawn("plain", verify_argv(workload), deadline)
    reference[workload] = {
        "exit_code": sample["exit_code"],
        "lines": stdout.count(b"\n"),
        "sha256": hashlib.sha256(stdout).hexdigest(),
    }
    print(workload, reference[workload])
(BENCH / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
