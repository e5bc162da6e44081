import csv
import json
import math
import re
import warnings

import numpy as np
import pytest

from statorlab import reference
from statorlab.cli import _solve_basis, main
from statorlab.config import (DEFAULT_CONFIG, apply_overrides, default_config,
                              deep_merge, load_config, validate_config)
from statorlab.errors import J0_FIRST_ZERO, ConfigError
from statorlab.modal import Discretization, ModalBasis

# the driven harmonic must be one of the solved ones, n_min..n_max
LIGHT = ["--set", "modal.n_max=2", "--set", "drive.electrode_harmonic=2"]
HUGE = 10 ** 400                     # 401 digits, past the float64 range
# the longest wavelength whose first dark fringe sits at the default clip,
# about 1.045e-5 m
CLIP_WAVELENGTH = 4 * math.pi * 2e-6 / J0_FIRST_ZERO


def test_default_config_is_isolated():
    cfg = default_config()
    cfg["drive"]["duration"] = 99.0
    cfg["analysis"]["probe_radii"].append(1.0)
    assert DEFAULT_CONFIG["drive"]["duration"] == 8.0e-3
    assert DEFAULT_CONFIG["analysis"]["probe_radii"] == [10.2e-3, 12.5e-3,
                                                         15.0e-3]


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"drive": {"peak_to_peak_voltage": 123.0}}))
    assert load_config(path)["drive"]["peak_to_peak_voltage"] == 123.0

    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "drive": {,}\n}\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(lst)


def test_deep_merge_semantics():
    base = {"a": {"x": 1, "y": 2}, "b": 3}
    out = deep_merge(base, {"a": {"y": 20}, "c": 4})
    assert out == {"a": {"x": 1, "y": 20}, "b": 3, "c": 4}
    assert base == {"a": {"x": 1, "y": 2}, "b": 3}


def test_apply_overrides():
    cfg = default_config()
    out = apply_overrides(cfg, ["drive.peak_to_peak_voltage=200",
                                "drive.phase_layout=single",
                                "material.damping_overrides.4=0.01"])
    assert out["drive"]["peak_to_peak_voltage"] == 200
    assert out["drive"]["phase_layout"] == "single"
    assert out["material"]["damping_overrides"] == {"4": 0.01}
    assert cfg["drive"]["peak_to_peak_voltage"] == 100.0
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(cfg, ["drive.duration"])


# every default survives JSON, and the plan read back is the default plan
def test_default_config_survives_a_json_round_trip():
    trip = json.loads(json.dumps(DEFAULT_CONFIG))
    assert trip == DEFAULT_CONFIG
    assert validate_config(trip) == validate_config(default_config())


def test_validate_config_builds_plan():
    plan = validate_config(default_config())
    assert set(plan) == {"geometry", "material", "modal", "drive", "optics",
                         "analysis", "image", "output_dir", "seed"}
    assert plan["geometry"].outer_radius == 15.0e-3
    assert plan["modal"]["discretization"].radial_nodes == 32
    assert plan["drive"]["drive_frequency"] == "resonance"
    assert plan["optics"]["sensitivity_factor"] is None
    assert plan["seed"] == 20230425
    # the keys of each section, which the commands and the tools read
    assert set(plan["modal"]) == {"n_min", "n_max", "modes_per_n",
                                  "discretization", "calibrate",
                                  "calibration_target_n",
                                  "calibration_target_hz"}
    assert set(plan["optics"]) == set(DEFAULT_CONFIG["optics"])
    for section in ("drive", "analysis", "image"):
        assert plan[section] == DEFAULT_CONFIG[section]


def test_damping_overrides_reach_material():
    cfg = apply_overrides(default_config(),
                          ["material.damping_overrides.5=0.011"])
    material = validate_config(cfg)["material"]
    assert material.damping_overrides == {5: 0.011}
    basis = ModalBasis((), Discretization(), "lookup",
                       material.modal_damping_ratio,
                       material.damping_overrides)
    assert basis.damping_for(5) == 0.011
    assert basis.damping_for(4) == 0.02


@pytest.mark.parametrize("override,fragment", [
    ("bogus.key=1", "unknown config section"),
    ("geometry.bogus=1", "unknown key"),
    # derived as total_height - notch_depth, so no longer a key
    ("geometry.base_thickness=0.00402", "unknown key.*base_thickness"),
    # the element quadrature is fixed at 6 Gauss points, so no longer a key
    ("modal.quadrature_order=6", "unknown key.*quadrature_order"),
    ("geometry.inner_radius=-1", "must be positive"),
    ("modal.calibrate=1", "true/false"),
    ("modal.n_max=0", "n_max"),
    ("drive.phase_layout=helix", "phase_layout"),
    ("drive.damping=1.5", "damping"),
    ("optics.strobe_duty=0.5", "<= 0.2"),
    ("analysis.probe_radii=[0.02]", "outside the stator"),
    ("analysis.circle_radius=0.02", "outside the stator"),
    ("analysis.circle_radius=1e-3", "inside the clamp"),
    ("analysis.circle_radius=6e-3", "inside the clamp"),   # on the clamp edge
    ("analysis.probe_radii=[0.0102,0.02]", "probe_radii: 0.02 lies outside"),
    ("analysis.probe_radii=[0.001]", "probe_radii: 0.001 lies inside the clamp"),
    ("analysis.probe_radii=[0.005]", "probe_radii: 0.005 lies inside the clamp"),
    ("analysis.probe_radii=[0.006]",                        # on the clamp edge
     "probe_radii: 0.006 lies inside the clamp"),
    ("analysis.settling_band=0.9", "<= 0.5"),
    ("image.pixels=8", ">= 16"),
    # the first value above each bound on a size that allocates
    ("modal.radial_nodes=513", "modal.radial_nodes: must be <= 512"),
    ("image.pixels=2049", "image.pixels: must be <= 2048"),
    ("analysis.circle_count=4097", "analysis.circle_count: must be <= 4096"),
    ("seed=-3", "seed"),
    ("material.damping_overrides.x=0.01", "not an integer"),
    # a harmonic is written one way only, so "4" and "04" cannot both set
    # harmonic 4, one of them silently lost
    ("material.damping_overrides.04=0.03",
     "harmonic key '04' is not an integer in plain form"),
    ("material.damping_overrides.-2=0.01",
     "damping override harmonic must be >= 0, got -2"),
    ("geometry.fixture_radius=0.012", "fixture_radius"),
    ("geometry.notch_count=400", "do not fit"),
    # each refusal names the keys that caused it
    ("geometry.notch_width=0.5", "22 notches of width 0.5 m do not fit .*: "
                                 "notch_count \\* notch_width must stay below"),
    ("optics.wavelength=0.5", "beyond optics.amplitude_clip 2e-06 m \\(set by "
                              "optics.wavelength and optics.sensitivity_factor"),
    ("optics.sensitivity_factor=3", "first dark fringe lies at 0.801609 m, "
                                    "beyond optics.amplitude_clip .*"
                                    "optics.sensitivity_factor\\)"),
    ("analysis.probe_radii=[0.0102,0.016]", "probe_radii: 0.016 lies outside "
                                            "the stator \\(geometry.outer_radius "
                                            "0.015\\)"),
    ("analysis.circle_radius=0.016", "circle_radius: 0.016 lies outside the "
                                     "stator \\(geometry.outer_radius 0.015\\)"),
    ("geometry.notch_count=4", "modal.n_max 7 is too high for "
                               "geometry.notch_count 4"),
    ("geometry.notch_count=14", "2 \\* n_max < notch_count"),  # 2n = N
    ("modal.n_max=11", "modal.n_max 11 is too high for geometry.notch_count 22"),
    ("material.poisson_ratio=0.5", "poisson_ratio"),
    ("analysis.strobe_phases_deg=[30,30,30]", "3 distinct"),
    ("analysis.strobe_phases_deg=[0,30]", "3 distinct"),
    ("analysis.strobe_phases_deg=[0,30,300]", "less than 180 deg apart"),
    ("analysis.strobe_phases_deg=[0,200,400]", "less than 180 deg apart"),
    ("analysis.strobe_phases_deg=[0,30,360]", "less than 180 deg apart"),
    # every strobe instant lies in the run's last two drive cycles (720 deg):
    # fringes strobes at 0 and the offset, fit at each phase and phase + offset
    ("analysis.strobe_offset_deg=800", "strobe_offset_deg = 950 deg, lies past"),
    ("analysis.strobe_offset_deg=570.5", "= 720.5 deg, lies past the 720"),
    ("analysis.strobe_phases_deg=[0,170,340,510,680]", "= 740 deg, lies past"),
    ("drive.electrode_harmonic=8", "electrode_harmonic 8 lies outside the "
                                   "solved harmonics modal.n_min..n_max = 1..7"),
    ("modal.n_min=5", "electrode_harmonic 4 lies outside"),
    # harmonic detection on the fit's ring needs 8 samples per unit of n
    ("analysis.circle_count=8", "analysis.circle_count 8 is too coarse for "
                                "drive.electrode_harmonic 4"),
    # below RingGrid's own floor of 8, the same message
    ("analysis.circle_count=4", "analysis.circle_count 4 is too coarse for "
                                "drive.electrode_harmonic 4"),
    ("analysis.circle_count=31", "at least 8 \\* n = 32 samples"),
    # JSON admits NaN, Infinity and integers beyond the float64 range
    ("drive.duration=NaN", "drive.duration: expected a finite number"),
    ("drive.dt=NaN", "drive.dt: expected a finite number"),
    ("optics.wavelength=NaN", "optics.wavelength: expected a finite number"),
    ("modal.calibration_target_hz=Infinity",
     "modal.calibration_target_hz: expected a finite number"),
    ("image.margin=Infinity", "image.margin: expected a finite number"),
    ("analysis.probe_theta=NaN", "analysis.probe_theta: expected a finite"),
    ("analysis.strobe_phases_deg=[0,NaN,60,90]", "list of finite strobe"),
    pytest.param(f"drive.duration={HUGE}", "drive.duration: expected a finite",
                 id="drive.duration=<401 digits>"),
    pytest.param(f"geometry.notch_count={HUGE}",
                 "geometry.notch_count: expected an integer in float64 range",
                 id="geometry.notch_count=<401 digits>"),
    pytest.param(f"analysis.probe_theta={HUGE}",
                 "analysis.probe_theta: expected a finite",
                 id="analysis.probe_theta=<401 digits>"),
])
def test_validate_config_rejections(override, fragment):
    cfg = apply_overrides(default_config(), [override])
    with pytest.raises(ConfigError, match=fragment):
        validate_config(cfg)


def test_cli_config_error_exit(tmp_path, capsys):
    rc = main(["modes", "--out", str(tmp_path / "o"),
               "--set", "geometry.inner_radius=-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "geometry.inner_radius" in err
    assert not (tmp_path / "o").exists()


# finite but unphysical: a "plate" as thick as its radius or far thicker,
# a phase noise that leaves no fringe order to unwrap, a sensitivity past
# 4 pi / lambda or a wavelength whose 4 pi / lambda overflows, a first
# dark fringe beyond the amplitude clip, and a ratio or mesh outside the
# range its constructor owns; every stage refuses them
@pytest.mark.parametrize("override,fragment", [
    (f"geometry.total_height={2 ** 63}", "total_height 9.223372036854776e+18 "
                                         "must be below outer_radius 0.015"),
    ("geometry.total_height=0.015", "total_height 0.015 must be below"),
    ("optics.noise_sigma=1e160", "optics.noise_sigma: must be < pi rad"),
    (f"optics.noise_sigma={math.pi!r}", "optics.noise_sigma: must be < pi rad"),
    ("optics.sensitivity_factor=1e160", "optics.sensitivity_factor: 1e+160 "
                                        "rad/m exceeds 4 pi / optics.wavelength"),
    ("optics.wavelength=1e160", "optics: the first dark fringe lies at "
                                "1.9137e+159 m"),
    (f"optics.sensitivity_factor={4 * math.pi / 532e-9 * (1 + 1e-9)!r}",
     "optics.sensitivity_factor: 23620997.419"),
    (f"optics.wavelength={CLIP_WAVELENGTH * (1 + 1e-9)!r}",
     "optics: the first dark fringe lies at 2e-06 m"),
    ("optics.wavelength=1e-320", "optics.wavelength: 4 pi / 1e-320 m "
                                 "overflows the float range"),
    ("material.modal_damping_ratio=0",
     "modal_damping_ratio must lie in (0, 1), got 0.0"),
    ("material.poisson_ratio=0.5", "poisson_ratio must lie in [0, 0.5), got 0.5"),
    ("material.damping_overrides.4=1.0",
     "damping override for n=4 must lie in (0, 1), got 1.0"),
    ("modal.radial_nodes=7", "radial_nodes must be >= 8, got 7"),
])
def test_cli_unphysical_magnitude_is_config_error(tmp_path, capsys, override,
                                                  fragment):
    for stage in ("modes", "fringes"):
        rc = main([stage, "--out", str(tmp_path / "o"), "--set", override])
        assert rc == 2
        assert f"config error: {fragment}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override", [
    None,
    f"optics.sensitivity_factor={4 * math.pi / 532e-9!r}",
    f"optics.wavelength={CLIP_WAVELENGTH!r}",
], ids=["defaults", "sensitivity-4pi-over-lambda", "dark-fringe-at-clip"])
def test_validate_config_accepts_physical_optics(override):
    # raises ConfigError if the optics are refused
    validate_config(apply_overrides(default_config(),
                                    [override] if override else []))


def test_validate_config_accepts_the_largest_noise_below_pi():
    below = math.nextafter(math.pi, 0.0)
    plan = validate_config(apply_overrides(default_config(),
                                           [f"optics.noise_sigma={below!r}"]))
    assert plan["optics"]["noise_sigma"] == below


def test_cli_non_finite_number_is_config_error(tmp_path, capsys):
    rc = main(["respond", "--out", str(tmp_path / "o"),
               "--set", "drive.duration=NaN"])
    assert rc == 2
    assert "config error: drive.duration" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_inconsistent_geometry_is_config_error(tmp_path, capsys):
    rc = main(["modes", "--out", str(tmp_path / "o"),
               "--set", "geometry.notch_count=400"])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_harmonics_past_the_notch_limit_are_config_error(tmp_path,
                                                            capsys):
    rc = main(["modes", "--out", str(tmp_path / "o"),
               "--set", "geometry.notch_count=4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: modal.n_max" in err
    assert "geometry.notch_count" in err
    assert not (tmp_path / "o").exists()


# a strobe past the run, a run too short to strobe and a driven harmonic
# outside the basis used to fail after the basis solve, fringes after it had
# written its time-averaged images
@pytest.mark.parametrize("stage,override,code,fragment", [
    ("fringes", "analysis.strobe_offset_deg=800", 2, "lies past the 720 deg"),
    ("fit", "analysis.strobe_phases_deg=[0,170,340,510,680]", 2,
     "lies past the 720 deg"),
    ("respond", "drive.electrode_harmonic=9", 2,
     "electrode_harmonic 9 lies outside"),
    ("fringes", "drive.duration=1e-4", 3, "shorter than two drive cycles"),
    # a settling time this short needs a damping ratio past critical
    ("respond", "analysis.settling_time_target=1e-6", 2,
     "config error: analysis.settling_time_target: settling in 1e-06 s at the "
     "10258.451 Hz drive needs damping ratio 46.4773, not below 1"),
])
def test_cli_strobe_and_harmonic_failures_leave_no_output(tmp_path, capsys, stage,
                                                          override, code, fragment):
    rc = main([stage, "--out", str(tmp_path / "o"), "--set", "modal.n_max=4",
               "--set", "image.pixels=64", "--set", "drive.duration=0.002",
               "--set", override])
    assert rc == code
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_ring_too_coarse_for_the_driven_harmonic_is_config_error(
        tmp_path, capsys):
    # it used to exit 3 blaming the noise floor, after the basis solve
    rc = main(["fit", "--out", str(tmp_path / "o"), "--set", "modal.n_max=7",
               "--set", "drive.electrode_harmonic=7",
               "--set", "analysis.circle_count=55"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: analysis.circle_count 55 is too "
                          "coarse for drive.electrode_harmonic 7")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("count", [4, 16])
def test_cli_ring_below_the_ring_floor_gets_the_same_message(tmp_path, capsys,
                                                             count):
    # 4 is below RingGrid's own floor of 8, 16 above it: one refusal, one
    # message naming the driven harmonic
    rc = main(["fit", "--out", str(tmp_path / "o"),
               "--set", f"analysis.circle_count={count}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"config error: analysis.circle_count {count} is too coarse "
                   "for drive.electrode_harmonic 4: detecting harmonic n needs "
                   "at least 8 * n = 32 samples on the ring\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("harmonic", [4, 7])
def test_cli_fit_detects_the_harmonic_on_the_coarsest_ring(tmp_path, harmonic):
    out = tmp_path / "o"
    # the 2 ms drive is shorter than the 3.4 ms settling, and the fit says so
    with pytest.warns(RuntimeWarning, match="has not settled"):
        rc = main(["fit", "--out", str(out), "--set", f"modal.n_max={harmonic}",
                   "--set", f"drive.electrode_harmonic={harmonic}",
                   "--set", "image.pixels=64", "--set", "drive.duration=0.002",
                   "--set", f"analysis.circle_count={8 * harmonic}"])
    assert rc == 0
    summary = (out / "fit_summary.txt").read_text().splitlines()
    assert f"detected harmonic: n={harmonic}" in summary


def test_cli_eigen_gate_names_both_levers(tmp_path, capsys):
    # an un-notched plate admits any n_max; at 32 nodes the float64 floor is
    # first crossed at n = 111, and 8 nodes fail earlier (n = 97)
    rc = main(["modes", "--out", str(tmp_path / "o"),
               "--set", "geometry.notch_count=0", "--set", "modal.n_max=200"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: eigenpair residual ")
    assert "above tolerance" in err
    assert "modal.n_max" in err and "modal.radial_nodes" in err
    assert re.search(r"\(harmonic n=1\d\d, radial_nodes=32\)$", err)
    assert not (tmp_path / "o").exists()


def test_cli_strobes_up_to_the_last_two_cycles_run(tmp_path):
    # 358 + the default 60 deg offset = 418 deg, inside the 720 deg span;
    # 2 ms is shorter than the 3.4 ms settling, so each strobe warns
    with pytest.warns(RuntimeWarning, match="has not settled") as caught:
        rc = main(["fit", "--out", str(tmp_path / "o"),
                   "--set", "modal.n_max=4", "--set", "drive.duration=0.002",
                   "--set", "analysis.strobe_phases_deg=[0,179,358]"])
    assert rc == 0
    assert len(caught) == 3
    assert (tmp_path / "o" / "fit_summary.txt").exists()


# the last strobe exactly at 720 deg, the driven harmonic at either end,
# a material damping ratio just below critical
@pytest.mark.parametrize("override", ["analysis.strobe_offset_deg=570",
                                      "drive.electrode_harmonic=1",
                                      "drive.electrode_harmonic=7",
                                      "material.modal_damping_ratio=0.9995"])
def test_validate_config_accepts_the_strobe_and_harmonic_limits(override):
    assert validate_config(apply_overrides(default_config(), [override]))


def test_validate_config_accepts_each_size_bound():
    plan = validate_config(apply_overrides(default_config(), [
        "modal.radial_nodes=512", "image.pixels=2048",
        "analysis.circle_count=4096"]))
    assert plan["modal"]["discretization"].radial_nodes == 512
    assert plan["image"]["pixels"] == 2048
    assert plan["analysis"]["circle_count"] == 4096


# no notches at all (a plain plate), or 2 * n_max < notch_count
@pytest.mark.parametrize("notches,n_max", [(0, 7), (0, 11), (15, 7)])
def test_validate_config_accepts_harmonics_below_the_notch_limit(notches,
                                                                 n_max):
    plan = validate_config(apply_overrides(default_config(), [
        f"geometry.notch_count={notches}", f"modal.n_max={n_max}"]))
    assert plan["geometry"].notch_count == notches
    assert plan["modal"]["n_max"] == n_max


def test_cli_circle_inside_clamp_is_config_error(tmp_path, capsys):
    rc = main(["fit", "--out", str(tmp_path / "o"),
               "--set", "analysis.circle_radius=6e-3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: analysis.circle_radius" in err
    assert "geometry.fixture_radius" in err
    assert not (tmp_path / "o").exists()


def test_cli_probe_inside_clamp_is_config_error(tmp_path, capsys):
    rc = main(["respond", "--out", str(tmp_path / "o"),
               "--set", "analysis.probe_radii=[0.001]"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: analysis.probe_radii" in err
    assert "inside the clamp" in err
    assert not (tmp_path / "o").exists()


def test_cli_numerical_error_exit(tmp_path, capsys):
    rc = main(["respond", "--out", str(tmp_path / "o"), *LIGHT,
               "--set", "modal.n_max=4", "--set", "drive.dt=1e-3"])
    assert rc == 3
    assert "sampling bound" in capsys.readouterr().err


# auto dt and a given dt alike: the trajectory would hold more than 2^22
# modal values, so respond refuses before it allocates one
@pytest.mark.parametrize("override", ["drive.duration=1000", "drive.dt=1e-12"])
def test_cli_respond_refuses_an_oversized_trajectory(tmp_path, capsys,
                                                     override):
    out = tmp_path / "o"
    rc = main(["respond", "--out", str(out), *LIGHT,
               "--set", "modal.n_max=4", "--set", override])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error: duration" in err and "dt =" in err
    assert not out.exists()


# a gain near the float limit overflows the modal force or response to inf
# and nan: every driven stage refuses it in one error line, with no
# floating-point warning, instead of writing nan probes
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("overrides", [
    ["drive.target_edge_amplitude=1e300"],
    ["drive.peak_to_peak_voltage=1e300", "drive.force_per_volt=1e10"],
], ids=["target-amplitude", "voltage-and-gain"])
def test_cli_driven_stages_refuse_a_non_finite_response(tmp_path, capsys,
                                                        overrides):
    out = tmp_path / "o"
    for stage in ("respond", "fringes", "fit"):
        rc = main([stage, "--out", str(out), *LIGHT,
                   *(arg for o in overrides for arg in ("--set", o))])
        assert rc == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: force_per_volt ")
        assert line.endswith(" overflows the modal force or response")
        assert not out.exists()


# each strobe averages 8 instants over its open window, so the fitted
# amplitude of a settled run carries the window's factor
# (1/8) sum_k cos(2 pi d s_k)
def test_cli_fit_amplitude_follows_the_strobe_window(tmp_path):
    def amplitudes(duty):
        out = tmp_path / f"d{duty}"
        assert main(["fit", "--out", str(out),
                     "--set", f"optics.strobe_duty={duty}"]) == 0
        with (out / "fit.csv").open() as fh:
            return np.array([float(row["A_m"]) for row in csv.DictReader(fh)])

    def window(duty):
        s = (np.arange(8) + 0.5) / 8 - 0.5
        return np.mean(np.cos(2 * np.pi * duty * s))

    ratio = amplitudes(0.2) / amplitudes(0.05)
    assert np.allclose(ratio, window(0.2) / window(0.05), rtol=1e-7, atol=0)


# drive.damping=material keeps the material's ratios, overrides included
@pytest.mark.parametrize("harmonic,expected", [(4, "0.006400"),
                                               (3, "0.020000")])
def test_cli_respond_material_damping(tmp_path, harmonic, expected):
    out = tmp_path / "o"
    assert main(["respond", "--out", str(out), *LIGHT,
                 "--set", "modal.n_max=4",
                 "--set", "drive.damping=material",
                 "--set", "material.damping_overrides.4=0.0064",
                 "--set", f"drive.electrode_harmonic={harmonic}"]) == 0
    text = (out / "settling.txt").read_text()
    assert f"damping ratio in effect: {expected}\n" in text


def test_cli_fringes_refuses_before_writing(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["fringes", "--out", str(out), *LIGHT,
               "--set", "modal.n_max=4", "--set", "image.pixels=64",
               "--set", "drive.dt=1e-3"])
    assert rc == 3
    assert "sampling bound" in capsys.readouterr().err
    assert not out.exists()


# the files README's command table lists for each stage
STAGE_FILES = {
    "modes": {"modes.csv", "radial_profiles.txt"},
    "respond": {"probes.csv", "settling.txt"},
    "fringes": {f"timeavg_md{n}.pgm" for n in range(1, 5)}
    | {"strobe_md4_0d_60d.pgm", "strobe_md4_0d_60d.f32"},
    "fit": {"fit.csv", "fit_summary.txt"},
    "report": {"report.txt"},
}


def test_cli_each_stage_writes_its_files(tmp_path):
    light = ["--set", "modal.n_max=4", "--set", "image.pixels=64"]
    for stage, expected in STAGE_FILES.items():
        out = tmp_path / stage
        assert main([stage, "--out", str(out), *light]) == 0
        assert {p.name for p in out.iterdir()} == expected
        for path in out.iterdir():
            if path.suffix in (".txt", ".csv"):
                assert "np." not in path.read_text(), path.name
    assert sum(map(len, STAGE_FILES.values())) == 13


def test_cli_fringes_field_header_bytes(tmp_path):
    # the .f32 header of the default run, as every earlier version wrote it
    assert main(["fringes", "--out", str(tmp_path)]) == 0
    blob = (tmp_path / "strobe_md4_0d_60d.f32").read_bytes()
    assert blob[:blob.index(b"end-header\n")] == (
        b"statorlab-field 1\nextent_m 0.01575\ninner_radius_m 0.00375\n"
        b"kind raster\nouter_radius_m 0.015\npixels 256\nstrobe_a_deg 0.0\n"
        b"strobe_b_deg 60.0\nshape 256x256\ndtype <f4\n")


def test_cli_modes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["modes", "--out", str(out), *LIGHT]) == 0
    with (out / "modes.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "orientation", "family", "frequency_hz"]
    assert rows[1][:3] == ["1", "cos", "0"]
    assert float(rows[1][3]) == pytest.approx(3680.0, rel=1e-6)
    assert len(rows) == 1 + 4          # cos/sin pairs for n = 1, 2
    profiles = (out / "radial_profiles.txt").read_text()
    assert "n=1" in profiles
    assert "3680.00 Hz" in capsys.readouterr().out


def test_cli_radial_profiles_are_plain_floats(tmp_path):
    out = tmp_path / "run"
    assert main(["modes", "--out", str(out), *LIGHT]) == 0
    plan = validate_config(apply_overrides(default_config(), LIGHT[1::2]))
    modes = iter(_solve_basis(plan))
    rows = mode = None
    for line in (out / "radial_profiles.txt").read_text().splitlines():
        if line.startswith("mode n="):
            mode = next(modes)
            assert line.startswith(f"mode n={mode.n} orientation={mode.orientation} ")
            rows = []
        elif line == "":
            table = np.array(rows)
            assert np.array_equal(table[:, 0], mode.radial_nodes)
            assert np.array_equal(table[:, 1], mode.radial_values)
            assert np.array_equal(table[:, 2], mode.radial_slopes)
            rows = None
        elif rows is not None and line != "r_m W dW_dr":
            fields = line.split(" ")
            assert len(fields) == 3, line
            rows.append([float(f) for f in fields])
    assert next(modes, None) is None


def test_cli_out_precedence(tmp_path, monkeypatch):
    envdir = tmp_path / "from-env"
    monkeypatch.setenv("STATORLAB_OUT", str(envdir))
    assert main(["modes", *LIGHT]) == 0
    assert (envdir / "modes.csv").exists()

    flagdir = tmp_path / "from-flag"
    assert main(["modes", "--out", str(flagdir), *LIGHT]) == 0
    assert (flagdir / "modes.csv").exists()


def test_cli_modes_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["modes", "--out", str(out), *LIGHT]) == 0
        outs.append(out)
    for fname in ("modes.csv", "radial_profiles.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def _probe_columns(path):
    by_pid = {}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for time_s, pid, disp in rows[1:]:
        by_pid.setdefault(int(pid), []).append(float(disp))
    return {pid: np.array(v) for pid, v in by_pid.items()}


def test_cli_voltage_linearity(tmp_path):
    base = ["--set", "modal.n_max=5", "--set", "drive.force_per_volt=1.0",
            "--set", "drive.duration=0.002"]
    assert main(["respond", "--out", str(tmp_path / "v100"), *base]) == 0
    assert main(["respond", "--out", str(tmp_path / "v200"), *base,
                 "--set", "drive.peak_to_peak_voltage=200"]) == 0
    u100 = _probe_columns(tmp_path / "v100" / "probes.csv")
    u200 = _probe_columns(tmp_path / "v200" / "probes.csv")
    assert sorted(u100) == sorted(u200) == [0, 1, 2]
    for pid in u100:
        assert np.array_equal(u200[pid], 2.0 * u100[pid])


def test_cli_zero_drive_gives_blank_fringes(tmp_path):
    out = tmp_path / "dark"
    rc = main(["fringes", "--out", str(out),
               "--set", "modal.n_max=4", "--set", "drive.force_per_volt=0.0",
               "--set", "image.pixels=64", "--set", "drive.duration=0.001"])
    assert rc == 0
    raw = (out / "timeavg_md4.pgm").read_bytes()
    magic, size, depth, payload = raw.split(b"\n", 3)
    assert (magic, size, depth) == (b"P5", b"64 64", b"255")
    # a motionless plate reconstructs bright everywhere inside the annulus
    assert set(payload) == {0, 255}
    assert (out / "strobe_md4_0d_60d.f32").exists()


def test_cli_report(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["report", "--out", str(out), *LIGHT, "--set",
                 "modal.n_max=3"]) == 0
    text = (out / "report.txt").read_text()
    assert capsys.readouterr().out == text
    assert "Md7" in text and "42.63" in text
    assert "12.61%" in text and "never gated on" in text
    # modes beyond the solved band stay blank
    md5_row = next(l for l in text.splitlines() if l.startswith("Md5"))
    assert md5_row.split()[1] == "-"


def test_cli_report_from_a_higher_first_harmonic(tmp_path):
    out = tmp_path / "rep"
    assert main(["report", "--out", str(out), *LIGHT, "--set",
                 "modal.n_min=2", "--set", "modal.n_max=4"]) == 0
    rows = {l.split()[0]: l.split()[1]
            for l in (out / "report.txt").read_text().splitlines()
            if l.startswith("Md")}
    assert [rows[f"Md{n}"] for n in (1, 5, 6, 7)] == ["-"] * 4
    for n in (2, 3, 4):
        assert float(rows[f"Md{n}"]) > 0.0


def test_build_report_self_comparison():
    text = reference.build_report([k * 1e3 for k in reference.SIMULATION_KHZ])
    sim_devs = [line.split()[3] for line in text.splitlines()
                if line.startswith("Md")]
    assert sim_devs == ["0.00"] * 7
    md6_row = next(l for l in text.splitlines() if l.startswith("Md6"))
    assert md6_row.split()[4] == "-"       # NPM1 never resolved Md6
    gap, mode, unit = reference.embedded_max_gap()
    assert gap == pytest.approx(12.607, abs=5e-3)
    assert (mode, unit) == ("Md2", "NPM2")


def test_cli_unsettled_strobes_warn(tmp_path, capsys):
    light = ["--set", "modal.n_max=4", "--set", "image.pixels=64"]
    short = ["--set", "drive.duration=0.0008"]
    for stage in ("fit", "fringes"):
        with pytest.warns(RuntimeWarning, match="has not settled"):
            assert main([stage, "--out", str(tmp_path / "short"), *light,
                         *short]) == 0
    # a state that has not settled still reads as a traveling wave: only
    # the warning tells
    assert "classification: traveling" in capsys.readouterr().out
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit", "--out", str(tmp_path / "default"), *light]) == 0
    assert not [w for w in caught if "has not settled" in str(w.message)]
