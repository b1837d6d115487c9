"""One benchmark sample: a fresh interpreter that imports artinforge from the
checkout's ``src/`` and runs one CLI invocation on its own stdout.

    python3 -I bench/sample.py ROOT MODE RECORD SPANS RUN_ID [ARG ...]

MODE is ``setup`` (import, then stop), ``plain`` (run ``cli.run(ARGS)``) or
``trace`` (the same, with every layer entry point wrapped by
:class:`tracing.Tracer`; the spans go to SPANS as JSONL).  RECORD receives a
JSON object with the CLOCK_MONOTONIC times at which the package was ready and
the run ended, the exit code of ``cli.run``, the imported ``artinforge``
file and, when traced, the per-layer metrics.  The process exits with the
code ``cli.run`` returned.
"""

import os
import sys
import time

root, mode, record_path, spans_path, run_id, *argv = sys.argv[1:]
sys.path.insert(0, os.path.join(root, "src"))

import artinforge.cli  # noqa: E402

ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402

record = {
    "artinforge_file": artinforge.__file__,
    "python": sys.version.split()[0],
    "ready_ns": ready,
}
code = 0
if mode != "setup":
    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    code = artinforge.cli.run(argv)
    sys.stdout.flush()
    done = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    record.update(exit_code=code, start_ns=start, done_ns=done)
    if tracer is not None:
        tracer.uninstall()
        tracer.write_jsonl(spans_path, run_id)
        record["layers"] = layer_metrics(tracer.spans, done - ready)
with open(record_path, "w", encoding="utf-8") as fh:
    json.dump(record, fh)
sys.exit(code)
