"""statorlab benchmark: one command for every workload and metric.

    python3 benchmarks/run.py --workload {pipeline,modal_sweep,hologram_batch,all}
                              --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it uses the checkout's ``src/``.

``--trace 0`` measures the end-to-end metrics with tracing off: a closed
loop of one client for ``--seconds``, with set-up time sampled in fresh
interpreters spread over the loop.  Op and set-up times are scaled to a
reference host speed (see ``gauge.py``); the raw wall-clock figures are
printed beside them.

``--trace 1`` is a separate run that wraps the program's public
functions (``tracer.py``), runs a fixed number of units derived from
``--seconds``, replays the same units untraced to measure the tracing
overhead, and reports the per-layer metrics (raw wall-clock).

Every op's output is checked against physics (see each ``wl_*.py``).  An
op fails when it raises, exits non-zero or fails its check; an op the
program refuses with NumericalError is counted as refused, stays in the
busy time behind ``ops_per_s`` and is left out of the latency figures.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report, and ``.bench_results/`` keeps the full record.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys

from gauge import NOMINAL_S, SpeedGauge
from harness import (ROOT, SRC, WORK_DIR, at_reference_speed, closed_loop,
                     digest, latency_summary, run_record, run_unit,
                     setup_sample, write_results)
from tracer import SPAN_FIELDS, Tracer, attribution, layer_metrics

WORKLOADS = ("pipeline", "modal_sweep", "hologram_batch")
SETUP_SAMPLES = 6            # fresh interpreters per run; 1 for runs under 10 s
DIGEST_UNITS = 64            # length of the generated op list that is digested

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric):
    if metric == "trace.attributed_share":
        return "share"
    return "s" if metric.endswith("_s") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "statorlab" / "__init__.py").is_file():
        print(f"error: no statorlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    wl = importlib.import_module(f"wl_{args.workload}")
    if wl.IN_PROCESS:
        import statorlab
        if os.path.dirname(statorlab.__file__) != str(SRC / "statorlab"):
            print(f"error: statorlab resolved to {statorlab.__file__}",
                  file=sys.stderr)
            return 2
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        outcomes, metrics, extra = run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    record["generated_digest"] = digest(
        list(itertools.islice(wl.units(args.seed), DIGEST_UNITS)))
    failed = sum(o.status == "error" for o in outcomes)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    write_results(name, {"record": record, "metrics": metrics, "extra": extra,
                         "outcomes": [vars(o) for o in outcomes]})
    report(args, record, outcomes, metrics, extra)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k) if args.trace
                        else END_TO_END_UNITS[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def timed_run(wl, args, workdir):
    """End-to-end metrics with tracing off; op and set-up times at the
    gauge's reference speed, with the raw wall-clock figures in the report."""
    gauge = SpeedGauge()
    ctx = wl.setup(workdir)
    stream = wl.units(args.seed)
    first = next(stream)
    if wl.IN_PROCESS:
        run_unit(wl, ctx, first)              # warm-up, not counted
    outcomes, done, probed = closed_loop(
        wl, ctx, itertools.chain([first], stream), args.seconds, gauge,
        probe=lambda: setup_sample(args.workload),
        probes=SETUP_SAMPLES if args.seconds >= 10 else 1)
    scaled = at_reference_speed(outcomes, window=4 if wl.IN_PROCESS else 0)
    setup = [raw * NOMINAL_S / gauge_s for raw, gauge_s in probed]
    metrics = end_to_end(scaled, setup, wl, ctx)
    summary = latency_summary(scaled)
    extra = {
        "raw": end_to_end(outcomes, [raw for raw, _ in probed], wl, ctx),
        "gauge_median_s": statistics.median(o.gauge_s for o in outcomes),
        "setup_samples": len(setup),
        "setup_gauge_median_s": statistics.median(g for _, g in probed),
        "tail_percentile": summary["tail_percentile"],
        "tail_samples": summary["tail_samples"],
        "error_rate": summary["error_rate"],
        "refusal_rate": summary["refusal_rate"],
        "units_run": len(done),
        "executed_digest": digest(done),
    }
    if args.workload == "pipeline":
        per_unit = {}
        for o in scaled:
            per_unit.setdefault(o.op_id // len(wl.STAGES), []).append(o.seconds)
        extra["pipeline_s"] = statistics.median(sum(v) for v in per_unit.values())
        for stage in wl.STAGES:
            times = [o.seconds for o in scaled
                     if o.kind == stage and o.status == "ok"]
            extra[f"stage.{stage}_s"] = statistics.median(times) if times else 0.0
    return outcomes, metrics, extra


def end_to_end(outcomes, setup, wl, ctx):
    summary = latency_summary(outcomes)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": summary["ops_per_s"],
        "op_p50_s": summary["op_p50_s"],
        "op_tail_s": summary["op_tail_s"],
        "peak_rss_mb": wl.peak_rss_kb(ctx) / 1024.0,
    }


def traced_run(wl, args, workdir):
    """Per-layer metrics: a traced pass, then the same units untraced."""
    count = max(1, round(args.seconds * wl.TRACE_UNITS_PER_SECOND))
    plan = list(itertools.islice(wl.units(args.seed), count))
    tracer = Tracer()
    if wl.IN_PROCESS:
        tracer.install()
    try:
        with tracer.span("setup"):
            ctx = wl.setup(workdir)
        if wl.IN_PROCESS:
            with tracer.paused():
                run_unit(wl, ctx, plan[0])    # warm-up, not recorded
        traced = [o for unit in plan for o in run_unit(wl, ctx, unit, tracer)]
    finally:
        tracer.uninstall()
    plain = [o for unit in plan for o in run_unit(wl, ctx, unit)]

    op_wall, attributed, process = attribution(tracer.spans)
    metrics = layer_metrics(
        tracer.spans, pipelines=count if args.workload == "pipeline" else 0)
    metrics["trace.overhead_s"] = op_wall - sum(o.seconds for o in plain)
    metrics["trace.attributed_share"] = attributed / op_wall if op_wall else 0.0
    metrics["trace.process_start_exit_s"] = process
    spans = [dict(zip(SPAN_FIELDS, s)) for s in tracer.spans]
    spans_file = write_results(f"{args.workload}-seed{args.seed}-spans.json", spans)
    extra = {
        "units_run": count,
        "executed_digest": digest(plan),
        "traced_op_wall_s": op_wall,
        "untraced_op_wall_s": sum(o.seconds for o in plain),
        "spans": len(spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "untraced_failed": sum(o.status == "error" for o in plain),
    }
    return traced, metrics, extra


def report(args, record, outcomes, metrics, extra):
    print(f"# statorlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# run record: " + json.dumps(record, sort_keys=True))
    print(f"# op list: generated digest {record['generated_digest']} (first "
          f"{DIGEST_UNITS} units); executed {extra['units_run']} units, digest "
          f"{extra['executed_digest']}")
    status = {s: sum(o.status == s for o in outcomes)
              for s in ("ok", "refused", "error")}
    print(f"# ops attempted {len(outcomes)}: answered {status['ok']}, "
          f"refused {status['refused']}, failed {status['error']}")
    for o in outcomes:
        if o.status == "error":
            print(f"#   failed op {o.op_id} ({o.kind}): {o.detail}")
    rows = []
    if args.trace:
        for k, v in metrics.items():
            rows.append((k, v, unit_of(k), ""))
        wall = extra["traced_op_wall_s"]
        process = metrics["trace.process_start_exit_s"]
        print(f"# traced op wall {wall:.4f} s, untraced "
              f"{extra['untraced_op_wall_s']:.4f} s; layer self times cover "
              f"{100 * metrics['trace.attributed_share']:.2f}% of traced op "
              f"wall, child interpreter start/exit "
              f"{100 * process / wall if wall else 0.0:.2f}%; spans in "
              f"{extra['spans_file']}")
    else:
        print(f"# times at reference speed: gauge kernel median "
              f"{1e3 * extra['gauge_median_s']:.3f} ms after ops, "
              f"{1e3 * extra['setup_gauge_median_s']:.3f} ms in set-up probes, "
              f"nominal {1e3 * NOMINAL_S:.3f} ms; raw wall-clock in brackets")
        notes = {
            "setup_s": f"median of {extra['setup_samples']} fresh interpreters",
            "op_tail_s": f"p{extra['tail_percentile']:.1f} of "
                         f"{extra['tail_samples']} answered ops",
        }
        for k, v in metrics.items():
            raw = ("" if k == "peak_rss_mb"
                   else f"[{extra['raw'][k]:.6g}] ")
            rows.append((k, v, END_TO_END_UNITS[k], raw + notes.get(k, "")))
        rows.append(("error_rate", extra["error_rate"], "failed/attempted", ""))
        rows.append(("refusal_rate", extra["refusal_rate"], "refused/attempted",
                     "NumericalError refusals"))
        for k, v in extra.items():
            if k == "pipeline_s" or k.startswith("stage."):
                rows.append((k, v, "s", "median"))
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>16.6g} {unit:<18} {note}".rstrip())


def run_all(args):
    """Every workload in its own process, then one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{workload}.{k}"] = v
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
