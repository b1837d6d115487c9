"""End-to-end benchmark of cold ``artinforge verify`` processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh interpreter
(``bench/sample.py``) that imports ``artinforge`` from this checkout's
``src/`` -- never an installed copy -- and runs one fixed ``verify``
invocation; a second run in one process would find the module-level caches
warm.  Samples run one at a time (a closed loop with one client), each cycle of
them after a few import-only processes that measure set-up.  A cycle starts
only while one as long as the longest so far still ends within S seconds.
The stdout of every sample is checked against ``reference.json``.

``--trace 0`` reports the end-to-end metrics, each a median over the run:
``wall_s`` (spawn to exit), ``setup_s`` (spawn until ``artinforge`` is
imported; from the import-only processes too) and ``peak_rss_mb`` (the
child's own peak RSS, from ``wait4``).  ``--trace 1`` alternates untraced and
traced samples and reports the per-layer metrics that ``BENCHMARK.json``
lists: those of ``tracing.layer_metrics``, medians over the traced samples,
and ``trace.overhead_frac``.  The paper fixes the inputs, so the seed changes
none of them; it only picks which kind of sample goes first in a traced run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (counted in reports, i.e. lines of ``verify``
output) and ``metrics``.  The run's full record, with the machine record of
every sample, goes to ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

from tracing import CLAIM_IDS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SOURCE = ROOT / "src" / "artinforge" / "__init__.py"
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_PROBES = 4  # import-only processes before each cycle of samples

_REGISTRY_CLAIMS = ",".join(c for c in CLAIM_IDS if c != "inverse_system")

# registry-n7: every claim but inverse_system at n <= 7, the widest registry
#   run that takes seconds; Groebner elimination and colon ideals dominate.
# inverse-system-n6: almost all quotient.annihilator and its kernel_basis
#   calls; no QuotientAlgebra and no colon, so it bypasses those layers.
# quotient-n7: QuotientAlgebra normal forms and socle kernels, with one
#   colon-free buchberger per ideal.
WORKLOADS = {
    "registry-n7": ["--n", "2..7", "--claims", _REGISTRY_CLAIMS],
    "inverse-system-n6": ["--n", "3..6", "--claims", "inverse_system"],
    "quotient-n7": ["--n", "7", "--claims", "thmG,challenge,thm3,not_gorenstein_J"],
}


def verify_argv(workload: str) -> list[str]:
    return ["verify", *WORKLOADS[workload], "--format", "json"]


def _now_ns() -> int:
    # CLOCK_MONOTONIC is shared by all processes, so the child's timestamps
    # compare with the parent's
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; recorded, never used to scale."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def check_output(stdout: bytes, exit_code: int, ref: dict) -> bool:
    """Whether a sample's exit code and stdout match the stored reference."""
    return (
        exit_code == ref["exit_code"]
        and stdout.count(b"\n") == ref["lines"]
        and hashlib.sha256(stdout).hexdigest() == ref["sha256"]
    )


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(mode: str, cli_argv, deadline_ns: int, spans: str = "", run_id: str = ""):
    """Run one ``sample.py`` process to its end, killing it at the deadline.

    Returns the sample's measurements, its stdout and its record.
    """
    WORK.mkdir(exist_ok=True)
    out, err, record_path = WORK / "stdout", WORK / "stderr", WORK / "record.json"
    record_path.unlink(missing_ok=True)
    argv = [
        sys.executable, "-I", str(BENCH / "sample.py"),
        str(ROOT), mode, str(record_path), spans, run_id, *cli_argv,
    ]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    remaining = (deadline_ns - _now_ns()) / 1e9
    if remaining <= 0:
        raise TimeoutError("the run's deadline passed before a sample could start")
    start = _now_ns()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, lambda *_: _kill(pid))
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        _, status, usage = os.wait4(pid, 0)
        end = _now_ns()
    except BaseException:  # interrupted or terminated: leave no child behind
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    record = {}
    if record_path.exists():
        record = json.loads(record_path.read_text(encoding="utf-8"))
        if Path(record["artinforge_file"]).resolve() != SOURCE.resolve():
            raise RuntimeError(
                f"sample imported {record['artinforge_file']}, not {SOURCE}"
            )
    sample = {
        "mode": mode,
        "exit_code": os.waitstatus_to_exitcode(status),
        "wall_s": (end - start) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "setup_s": (record["ready_ns"] - start) / 1e9 if record else None,
        "run_s": (record["done_ns"] - record["start_ns"]) / 1e9 if "done_ns" in record else None,
        "artinforge_file": record.get("artinforge_file"),
        "layers": record.get("layers"),
    }
    return sample, out.read_bytes(), record


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for ``seconds``; returns the result object."""
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))[workload]
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    deadline = _now_ns() + RUN_LIMIT_S * 10**9
    host = machine()

    def setup_probe() -> float:
        sample, _, record = spawn("setup", (), deadline)
        if sample["exit_code"] != 0 or not record:
            raise RuntimeError(f"artinforge failed to import: exit {sample['exit_code']}")
        return sample["setup_s"]

    setup_probe()  # warm-up: byte-compiles the package and fills the page cache

    if not trace:
        cycle = ["plain"]
    else:
        cycle = ["plain", "trace"] if seed % 2 == 0 else ["trace", "plain"]
    samples: list[dict] = []
    setup_times: list[float] = []
    window = seconds * 10**9
    measuring = _now_ns()
    longest = 0  # ns taken by the longest cycle so far
    while not samples or _now_ns() - measuring + longest <= window:
        cycle_start = _now_ns()
        setup_times += [setup_probe() for _ in range(SETUP_PROBES)]
        for mode in cycle:
            index = len(samples)
            run_id = f"{workload}/seed{seed}/{index}"
            spans = str(WORK / f"spans-{workload}-{index}.jsonl")
            calib = calibrate()
            sample, stdout, _ = spawn(mode, verify_argv(workload), deadline, spans, run_id)
            sample.update(host, calib_s=calib, run_id=run_id)
            sample["ok"] = check_output(stdout, sample["exit_code"], ref)
            if mode == "trace":
                sample["spans"] = spans
            samples.append(sample)
            if sample["setup_s"] is not None:
                setup_times.append(sample["setup_s"])
            print(
                f"sample {index} {mode}: wall {sample['wall_s']:.4f} s, "
                f"cpu {sample['cpu_s']:.4f} s, setup {sample['setup_s'] or 0:.4f} s, "
                f"rss {sample['peak_rss_mb']:.1f} MB, calib {calib:.4f} s, "
                f"{'ok' if sample['ok'] else 'FAILED'}",
                flush=True,
            )
        longest = max(longest, _now_ns() - cycle_start)
        if not all(s["ok"] for s in samples):
            break

    plain = [s for s in samples if s["mode"] == "plain"]
    traced = [s for s in samples if s["layers"]]
    if trace:
        metrics = {
            name: {
                "value": (statistics.median_low if unit == "count" else statistics.median)(
                    s["layers"][name] for s in traced
                )
                if traced
                else 0,
                "unit": unit,
            }
            for name, unit in ((m["name"], m["unit"]) for m in per_layer)
            if name != "trace.overhead_frac"
        }
        # the claim run inside the child, so the span dump is not counted
        overhead = 0.0
        if traced and all(s["run_s"] for s in plain):
            overhead = (
                statistics.median(s["run_s"] for s in traced)
                / statistics.median(s["run_s"] for s in plain)
                - 1
            )
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(s["wall_s"] for s in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(s["peak_rss_mb"] for s in plain),
                "unit": "MB",
            },
        }
    failed = ref["lines"] * sum(not s["ok"] for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": ref["lines"] * len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    (WORK / f"run-{workload}-trace{int(trace)}.json").write_text(
        json.dumps(
            {
                "workload": workload,
                "argv": verify_argv(workload),
                "seed": seed,
                "seconds": seconds,
                "trace": trace,
                "setup_s_values": setup_times,
                "samples": samples,
                "result": result,
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not SOURCE.is_file():
        print(f"no artinforge sources at {SOURCE}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:40} {metric['value']:.6g} {metric['unit']}")
    print(
        f"{'fail_frac':40} {result['failed'] / result['attempted']:.6g} ratio "
        f"({result['failed']} of {result['attempted']} reports)"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
