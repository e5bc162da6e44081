"""Run one CLI stage in this fresh interpreter, as ``python -m
statorlab.cli`` does, with tracing or with the host speed gauge.

    python stage_runner.py gauge GAUGE_FILE [statorlab.cli arguments...]
    python stage_runner.py trace SPANS_JSON [statorlab.cli arguments...]

``gauge``: after the stage, times the kernel in ``gauge.py`` in this same
process, whose speed the benchmark process cannot see, and writes
``<mean kernel seconds> <seconds spent on the gauge>`` to GAUGE_FILE.  The
benchmark scales the stage's time by the first and leaves the second out.

``trace``: times ``import statorlab.cli``, wraps the public functions (see
``tracer.py``), runs ``statorlab.cli.main`` and writes the spans to
SPANS_JSON.

Either way the process exits with the stage's exit code.
"""

import json
import sys
import time


def gauged(gauge_path, argv):
    import statorlab.cli
    try:
        return statorlab.cli.main(argv)
    finally:
        start = time.monotonic()
        from gauge import CHILD_RUNS, SpeedGauge
        mean = SpeedGauge().mean(CHILD_RUNS)
        with open(gauge_path, "w") as fh:
            fh.write(f"{mean!r} {time.monotonic() - start!r}\n")


def traced(spans_path, argv):
    from tracer import Tracer
    tracer = Tracer()
    tracer.op = 0           # the parent renumbers ops when it adopts spans
    with tracer.span("cli.import"):
        import statorlab.cli
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = statorlab.cli.main(argv)
        tracer.run_probes()
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    mode, path = sys.argv[1:3]
    sys.exit({"gauge": gauged, "trace": traced}[mode](path, sys.argv[3:]))
