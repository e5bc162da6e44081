"""Smoke tests of the benchmark itself; ``testpaths`` keeps them out of the
main suite.

    python -m pytest -q benchmarks/test_smoke.py

Tiny runs of every workload, traced and untraced, proof that a wrong
output is counted as a failed op while a refusal is not, and that scaling
to the reference host speed keeps a slower op slower by the same factor.
"""

import dataclasses
import itertools
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
from gauge import SpeedGauge  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", seconds,
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_layers_account_for_op_time():
    proc = run_bench("hologram_batch", 1, seconds="2")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["trace.attributed_share"]["value"] > 0.95
    assert metrics["dynamics.respond_s"]["value"] > 0
    assert metrics["ioutil.files_written"]["value"] == 0


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("modal_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", ["modal_sweep", "hologram_batch"])
def test_setup_probe_times_no_benchmark_machinery(workload):
    """``setup_s`` times the workload module's import and set-up; that must
    not load the harness or the tracer."""
    code = (f"import sys, wl_{workload}; "
            "print([m for m in ('harness', 'tracer') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=harness.child_env(), cwd=BENCH_DIR,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def first_op(module, **changes):
    op = next(module.units(0))[0]
    op.update(changes)
    return op


@pytest.fixture(scope="module")
def hologram_ctx():
    import wl_hologram_batch as wl
    return wl.setup(None)


def test_perturbed_fit_amplitude_counts_as_failure(monkeypatch, hologram_ctx):
    import wl_hologram_batch as wl
    from statorlab import holography
    ctx = hologram_ctx
    op = first_op(wl)
    assert harness.run_op(wl, ctx, op).status == "ok"
    unwrap = holography.unwrap_to_displacement
    monkeypatch.setattr(holography, "unwrap_to_displacement",
                        lambda *a, **k: unwrap(*a, **k).scaled(1.05))
    outcome = harness.run_op(wl, ctx, op)
    assert outcome.status == "error" and "amplitude" in outcome.detail
    assert harness.latency_summary([outcome])["error_rate"] == 1.0


def test_scaled_response_counts_as_failure(monkeypatch, hologram_ctx):
    """The hologram reference is simulated apart from the op, so a wrong
    time history does not cancel out of the check."""
    import wl_hologram_batch as wl
    from statorlab import dynamics
    respond = dynamics.respond

    def scaled(*args, **kwargs):
        traj = respond(*args, **kwargs)
        return dataclasses.replace(traj, q=1.05 * traj.q, steady=1.05 * traj.steady)

    monkeypatch.setattr(dynamics, "respond", scaled)
    outcome = harness.run_op(wl, hologram_ctx, first_op(wl))
    assert outcome.status == "error" and "direct" in outcome.detail


def test_direct_reference_matches_every_harmonic(hologram_ctx):
    import wl_hologram_batch as wl
    for n in wl.HARMONICS:
        op = first_op(wl, harmonic=n, pixels=128, duration=4e-3)
        assert harness.run_op(wl, hologram_ctx, op).status == "ok", n


def test_slower_op_shows_in_full_at_reference_speed(monkeypatch, hologram_ctx):
    """An op that does twice the work reads about twice as slow after
    scaling as before it: the gauge after an op does not depend on what the
    op left in the caches or the allocator.  Plain and doubled runs of each
    op alternate, and each pair is compared, so host drift hits both alike;
    the host's noise on single kernel runs sets the 5% tolerance."""
    import wl_hologram_batch as wl
    execute = wl.execute

    def twice(ctx, op, tracer):
        execute(ctx, op, tracer)
        return execute(ctx, op, tracer)

    gauge = SpeedGauge()
    pairs = []
    for unit in itertools.islice(wl.units(0), 27):
        plain = harness.run_op(wl, hologram_ctx, unit[0], gauge=gauge)
        monkeypatch.setattr(wl, "execute", twice)
        doubled = harness.run_op(wl, hologram_ctx, unit[0], gauge=gauge)
        monkeypatch.setattr(wl, "execute", execute)
        assert plain.status == doubled.status == "ok"
        pairs.append((plain, doubled))
    raw = statistics.median(d.seconds / p.seconds for p, d in pairs)
    gauge_ratio = statistics.median(d.gauge_s / p.gauge_s for p, d in pairs)
    assert raw > 1.5
    assert gauge_ratio == pytest.approx(1.0, abs=0.05)


def test_miscalibrated_basis_counts_as_failure(monkeypatch):
    import wl_modal_sweep as wl
    from statorlab import modal
    op = first_op(wl, radial_nodes=32, modes_per_n=1)
    calibrate = modal.calibrate
    monkeypatch.setattr(modal, "calibrate", lambda plate, target, **k: calibrate(
        plate, (target[0], target[1] * 1.001), **k))
    outcome = harness.run_op(wl, {}, op)
    assert outcome.status == "error" and "f(n=1)" in outcome.detail


def test_eigen_residual_gate_is_a_refusal_not_a_failure():
    import wl_modal_sweep as wl
    outcome = harness.run_op(wl, {}, first_op(wl, radial_nodes=128))
    assert outcome.status == "refused"
    summary = harness.latency_summary([outcome])
    assert summary["refusal_rate"] == 1.0 and summary["error_rate"] == 0.0


def test_pipeline_check_rejects_wrong_classification(tmp_path):
    import wl_pipeline as wl
    op = next(wl.units(0))[3]
    assert op["kind"] == "fit"
    n = op["config"]["drive"]["electrode_harmonic"]
    (tmp_path / "fit.csv").write_text("strobe_phase_deg\n")
    summary = tmp_path / "fit_summary.txt"
    summary.write_text(f"detected harmonic: n={n}\nclassification: traveling\n")
    wl.check(None, op, str(tmp_path))
    summary.write_text(f"detected harmonic: n={n}\nclassification: standing\n")
    with pytest.raises(harness.CheckFailed):
        wl.check(None, op, str(tmp_path))


def test_tracer_restores_the_program():
    from statorlab import analysis, cli, grids, modal
    before = (modal.solve_modes, cli.solve_modes, analysis.circle_values,
              grids.RasterGrid.__dict__["__post_init__"],
              analysis.CircleSample.__dict__["from_field"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.solve_modes is modal.solve_modes is not before[0]
    finally:
        tracer.uninstall()
    after = (modal.solve_modes, cli.solve_modes, analysis.circle_values,
             grids.RasterGrid.__dict__["__post_init__"],
             analysis.CircleSample.__dict__["from_field"])
    assert after == before


def test_tail_has_ten_samples_beyond_it():
    value, percentile, count = harness.tail(range(25))
    assert (value, percentile, count) == (14, 60.0, 25)
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_reference_speed_scales_by_the_local_gauge():
    fast = harness.NOMINAL_S / 2
    outcomes = [harness.Outcome(i, "op", 1.0, "ok", gauge_s=fast) for i in range(3)]
    outcomes.append(harness.Outcome(3, "op", 1.0, "ok",
                                    gauge_s=2 * harness.NOMINAL_S))
    scaled = harness.at_reference_speed(outcomes, window=1)
    assert [o.seconds for o in scaled] == pytest.approx([2.0, 2.0, 2.0, 0.8])
    assert [o.seconds for o in outcomes] == [1.0] * 4
