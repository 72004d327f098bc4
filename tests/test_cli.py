import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shearspec as ss
from shearspec import analysis
from shearspec.cli import main
from shearspec.reconstruction import fit_to_dict

from conftest import SHEAR, TAU


CONFIG_QUAD = {
    "pulse": {
        "center_wavelength": 830.0,
        "fwhm_wavelength": 8.0,
        "phase_kind": "polynomial",
        "poly_coeffs": [0.0, 8.7e4, 5.0e5],
    },
    "interferometer": {"shear_nm": 0.58, "delay_fs": 10000.0, "seed": 7},
}


# per-trial lists in summary.json["trials"]: the fit_to_dict keys and two diagnostics
TRIAL_KEYS = (
    "phi1_fs", "phi1_fs_stderr", "phi2_fs2", "phi2_fs2_stderr", "phi3_fs3", "phi3_fs3_stderr",
    "visibility", "sideband_snr",
)


def write_config(tmp_path, name="run.json", **tweaks):
    raw = json.loads(json.dumps(CONFIG_QUAD))
    for key, value in tweaks.items():
        block, _, field = key.partition(".")
        if field:
            raw.setdefault(block, {})[field] = value
        else:
            raw[block] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_pipeline_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(["pipeline", "--preset", "quadratic", "--out", str(out), "--quiet"]) == 0
    for name in (
        "config_echo.json",
        "truth_mode.json",
        "interferogram.csv",
        "result.json",
        "summary.json",
        "spectrum.csv",
        "phase.csv",
        "temporal.csv",
    ):
        assert (out / name).is_file(), name
    assert not (out / "wigner.csv").exists()

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["coefficients"]["phi2_fs2"] == pytest.approx(8.7e4, abs=500.0)
    assert summary["overlap_with_truth"] > 0.99
    assert summary["seed"] == 7
    assert sorted(summary["files"]) == summary["files"]


def test_pipeline_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["pipeline", "--preset", "quadratic", "--quiet", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "interferogram.csv").read_bytes() == (b / "interferogram.csv").read_bytes()


def test_config_echo_reproduces_run(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(["simulate", "--preset", "quadratic", "--out", str(d1), "--quiet"]) == 0
    echo = d1 / "config_echo.json"
    assert main(["simulate", "--config", str(echo), "--out", str(d2), "--quiet"]) == 0
    assert (d1 / "interferogram.csv").read_bytes() == (d2 / "interferogram.csv").read_bytes()


def test_simulate_reconstruct_analyze_chain(tmp_path):
    sim = tmp_path / "sim"
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--noiseless", "--out", str(sim), "--quiet"]) == 0

    record = ss.load_interferogram_csv(sim / "interferogram.csv")
    assert record.kind == "ideal"

    rec = tmp_path / "rec"
    assert main(
        [
            "reconstruct",
            str(sim / "interferogram.csv"),
            "--config",
            cfg,
            "--out",
            str(rec),
            "--quiet",
        ]
    ) == 0
    result = ss.load_result(rec / "result.json")
    assert result.coefficients.coefficient(2) == pytest.approx(8.7e4, abs=100.0)

    ana = tmp_path / "ana"
    assert main(
        [
            "analyze",
            str(rec / "result.json"),
            "--truth",
            str(sim / "truth_mode.json"),
            "--out",
            str(ana),
            "--wigner",
            "--quiet",
        ]
    ) == 0
    report = json.loads((ana / "report.json").read_text(encoding="utf-8"))
    assert report["overlap_with_truth"] > 0.999
    assert (ana / "wigner.csv").is_file()


def test_reconstruct_explicit_units(tmp_path):
    sim = tmp_path / "sim"
    assert main(
        ["simulate", "--preset", "quadratic", "--noiseless", "--out", str(sim), "--quiet"]
    ) == 0
    rec = tmp_path / "rec"
    assert main(
        [
            "reconstruct",
            str(sim / "interferogram.csv"),
            "--shear-nm",
            "0.58",
            "--center-nm",
            "830",
            "--tau-fs",
            "10000",
            "--out",
            str(rec),
            "--quiet",
        ]
    ) == 0
    result = ss.load_result(rec / "result.json")
    assert result.coefficients.coefficient(2) == pytest.approx(8.7e4, abs=100.0)


def test_reconstruct_shear_nm_uses_grid_center(tmp_path):
    # with grid.center_nm off the pulse carrier, --shear-nm must convert at
    # the same wavelength as the config's own shear_nm
    cfg = write_config(tmp_path, **{"grid.center_nm": 835.0})
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--noiseless", "--out", str(sim), "--quiet"]) == 0
    rec = tmp_path / "rec"
    assert main(
        ["reconstruct", str(sim / "interferogram.csv"), "--config", cfg, "--shear-nm", "0.58",
         "--out", str(rec), "--quiet"]
    ) == 0
    used = ss.load_result(rec / "result.json").diagnostics["shear_rad_per_fs_used"]
    assert used == ss.shear_config(ss.load_config(cfg)).shear
    assert used != ss.shear_nm_to_omega(0.58, 830.0)


def test_reconstruct_center_nm_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--noiseless", "--out", str(sim), "--quiet"]) == 0
    rec = tmp_path / "rec"
    assert main(
        ["reconstruct", str(sim / "interferogram.csv"), "--config", cfg, "--shear-nm", "0.58",
         "--center-nm", "800", "--out", str(rec), "--quiet"]
    ) == 0
    used = ss.load_result(rec / "result.json").diagnostics["shear_rad_per_fs_used"]
    assert used == ss.shear_nm_to_omega(0.58, 800.0)


def test_reconstruct_center_nm_converts_the_config_shear_nm(tmp_path):
    # without --shear-nm the config's shear_nm converts at --center-nm too
    cfg = write_config(tmp_path)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--noiseless", "--out", str(sim), "--quiet"]) == 0
    rec = tmp_path / "rec"
    assert main(
        ["reconstruct", str(sim / "interferogram.csv"), "--config", cfg, "--center-nm", "800",
         "--out", str(rec), "--quiet"]
    ) == 0
    used = ss.load_result(rec / "result.json").diagnostics["shear_rad_per_fs_used"]
    assert used == ss.shear_nm_to_omega(0.58, 800.0)
    assert used != ss.shear_config(ss.load_config(cfg)).shear


@pytest.mark.parametrize("source", ["flag", "config"])
def test_center_nm_refused_for_a_shear_in_rad_per_fs(tmp_path, capsys, source):
    if source == "flag":
        shear = ["--shear-rad-per-fs", str(SHEAR), "--tau-fs", "10000"]
    else:
        shear = ["--config", write_config(tmp_path, **{"interferometer.shear_nm": None,
                                                       "interferometer.shear_rad_per_fs": SHEAR})]
    rec = tmp_path / "rec"
    # the shear is resolved before the record is read: a missing record still exits 2
    assert main(["reconstruct", str(tmp_path / "none.csv"), *shear, "--center-nm", "500",
                 "--out", str(rec), "--quiet"]) == 2
    assert "--center-nm" in capsys.readouterr().err
    assert not rec.exists()


def test_reconstruct_help_lists_the_settings_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--filter-width", "--amplitude-floor"):
        assert flag in text, flag
    for retired in ("--filter-shape", "--filter-order", "--no-envelope-correction",
                    "--correct-envelope-bias", "--integration-method"):
        assert retired not in text, retired


@pytest.mark.parametrize(
    "flag, named",
    [(["--filter-width", "wide"], "--filter-width"), (["--filter-width", "0"], "filter_width"),
     (["--filter-width", "inf"], "filter_width"),
     (["--amplitude-floor", "1.5"], "amplitude_floor")],
    ids=["width", "width-zero", "width-inf", "floor"],
)
def test_bad_settings_flag_exits_2_before_reading(tmp_path, capsys, monkeypatch, flag, named):
    # an argparse error raises SystemExit; a settings error makes main return 2
    read = []
    monkeypatch.setattr("shearspec.cli.load_interferogram_csv", read.append)
    argv = ["reconstruct", str(tmp_path / "none.csv"), "--shear-rad-per-fs", str(SHEAR),
            "--tau-fs", "10000", *flag, "--out", str(tmp_path / "rec")]
    if named.startswith("--"):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code = exc.value.code
    else:
        code = main(argv)
    assert code == 2
    assert named in capsys.readouterr().err
    assert read == []


def test_reconstruct_with_calibration(tmp_path):
    cal_cfg = write_config(tmp_path, "cal.json", **{"interferometer.shear_nm": None,
                                                    "interferometer.shear_rad_per_fs": 0.0})
    cal_dir = tmp_path / "cal"
    assert main(["simulate", "--config", cal_cfg, "--noiseless", "--out", str(cal_dir), "--quiet"]) == 0

    sim = tmp_path / "sim"
    assert main(
        ["simulate", "--preset", "quadratic", "--noiseless", "--out", str(sim), "--quiet"]
    ) == 0

    rec = tmp_path / "rec"
    assert main(
        [
            "reconstruct",
            str(sim / "interferogram.csv"),
            "--shear-nm",
            "0.58",
            "--center-nm",
            "830",
            "--calibrate-from",
            str(cal_dir / "interferogram.csv"),
            "--out",
            str(rec),
            "--quiet",
        ]
    ) == 0
    result = ss.load_result(rec / "result.json")
    assert result.diagnostics["tau_calibrated"] is True
    assert result.diagnostics["tau_fs_used"] == pytest.approx(10000.0, rel=1e-3)
    assert result.coefficients.coefficient(2) == pytest.approx(8.7e4, abs=100.0)


def test_calibration_uses_the_record_settings(tmp_path):
    # a noisy zero-shear record: the fitted delay depends on the window's width
    cal_cfg = write_config(tmp_path, "cal.json", **{"interferometer.shear_nm": None,
                                                    "interferometer.shear_rad_per_fs": 0.0})
    cal = tmp_path / "cal"
    assert main(["simulate", "--config", cal_cfg, "--out", str(cal), "--quiet"]) == 0
    sim, rec = tmp_path / "sim", tmp_path / "rec"
    argv = ["simulate", "--preset", "quadratic", "--noiseless", "--out", str(sim), "--quiet"]
    assert main(argv) == 0
    assert main(["reconstruct", str(sim / "interferogram.csv"), "--shear-nm", "0.58",
                 "--center-nm", "830", "--tau-fs", "10000", "--filter-width", "3000",
                 "--calibrate-from", str(cal / "interferogram.csv"), "--out", str(rec),
                 "--quiet"]) == 0
    used = ss.load_result(rec / "result.json").diagnostics["tau_fs_used"]
    record = ss.load_interferogram_csv(cal / "interferogram.csv")
    settings = ss.FtsiSettings(filter_width=3000.0)
    assert used == ss.calibrate_delay(record, settings, TAU).tau_fs
    assert used != ss.calibrate_delay(record, ss.FtsiSettings(), TAU).tau_fs


# 1 fs around tau = 10 ps holds no bin of the 28.7 fs time step
@pytest.mark.parametrize("width, code", [(100, 3), (200, 0), (1, 2)])
def test_filter_width_must_isolate_the_sideband(tmp_path, capsys, width, code):
    sim = tmp_path / "sim"
    argv = ["simulate", "--preset", "quadratic", "--noiseless", "--out", str(sim), "--quiet"]
    assert main(argv) == 0
    rec = tmp_path / "rec"
    assert main(["reconstruct", str(sim / "interferogram.csv"), "--config",
                 str(sim / "config_echo.json"), "--filter-width", str(width),
                 "--out", str(rec), "--quiet"]) == code
    err = capsys.readouterr().err
    assert ("sideband is not isolated" in err) == (code == 3)
    assert ("filter_width 1 fs leaves no time bin" in err) == (code == 2)
    assert rec.exists() == (code == 0)


def test_filter_width_below_one_time_step_reconstructs(tmp_path):
    # 28 fs against the 28.7 fs time step: a bin falls in the search window
    sim, rec = tmp_path / "sim", tmp_path / "rec"
    argv = ["simulate", "--preset", "v-phase", "--noiseless", "--out", str(sim), "--quiet"]
    assert main(argv) == 0
    assert main(["reconstruct", str(sim / "interferogram.csv"), "--config",
                 str(sim / "config_echo.json"), "--filter-width", "28",
                 "--out", str(rec), "--quiet"]) == 0


def test_trials_layout(tmp_path):
    out = tmp_path / "mc"
    assert main(
        ["pipeline", "--preset", "quadratic", "--trials", "3", "--out", str(out), "--quiet"]
    ) == 0
    assert (out / "trial_000" / "result.json").is_file()
    assert (out / "trial_000" / "interferogram.csv").is_file()
    assert not (out / "trial_001").exists()
    assert not (out / "trial_002").exists()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    tr = summary["trials"]
    assert tr["n"] == 3
    assert len(tr["phi2_fs2"]) == 3
    assert len(set(tr["phi2_fs2"])) == 3  # distinct per-trial seeds
    assert tr["phi2_fs2_mean"] == pytest.approx(np.mean(tr["phi2_fs2"]))
    for key in TRIAL_KEYS:
        assert len(tr[key]) == 3, key


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("name", ["quadratic", "compensated"])
def test_summary_lists_the_files_written(tmp_path, name, trials):
    out = tmp_path / "run"
    argv = ["pipeline", "--preset", name, "--trials", str(trials), "--out", str(out), "--quiet"]
    assert main(argv) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert summary["files"] == written


def test_trial_records_regenerate_from_the_echo(tmp_path):
    run, sim = tmp_path / "run", tmp_path / "sim"
    argv = ["pipeline", "--preset", "quadratic", "--trials", "3", "--out", str(run), "--quiet"]
    assert main(argv) == 0
    echo = str(run / "config_echo.json")
    assert main(["simulate", "--config", echo, "--trials", "3", "--out", str(sim), "--quiet"]) == 0
    trial0 = "trial_000/interferogram.csv"
    assert (sim / trial0).read_bytes() == (run / trial0).read_bytes()

    rec0, rec2 = tmp_path / "rec0", tmp_path / "rec2"
    for trial, rec in ((0, rec0), (2, rec2)):
        csv = str(sim / f"trial_{trial:03d}" / "interferogram.csv")
        assert main(["reconstruct", csv, "--config", echo, "--out", str(rec), "--quiet"]) == 0
    assert (rec0 / "result.json").read_bytes() == (run / "trial_000" / "result.json").read_bytes()

    tr = json.loads((run / "summary.json").read_text(encoding="utf-8"))["trials"]
    result = ss.load_result(str(rec2 / "result.json"))
    regenerated = fit_to_dict(result.coefficients)
    regenerated.update((key, result.diagnostics[key]) for key in ("visibility", "sideband_snr"))
    assert {key: tr[key][2] for key in TRIAL_KEYS} == regenerated


def test_compare_presets(tmp_path):
    # the overlap of two runs: analyze one run's result.json against the other's
    v, lam, ana = tmp_path / "v", tmp_path / "l", tmp_path / "ana"
    for name, out in (("v-phase", v), ("lambda-phase", lam)):
        argv = ["pipeline", "--preset", name, "--noiseless", "--out", str(out), "--quiet"]
        assert main(argv) == 0
    assert main(["analyze", str(v / "result.json"), "--truth", str(lam / "result.json"),
                 "--out", str(ana), "--quiet"]) == 0
    report = json.loads((ana / "report.json").read_text(encoding="utf-8"))
    assert 0.001 < report["overlap_with_truth"] < 0.02
    assert report["spectral_l1_vs_truth"] < 0.05
    overlap, spectral_l1, temporal_l1 = ss.orthogonality_report(
        ss.load_result(v / "result.json").mode(), ss.load_result(lam / "result.json").mode())
    assert report["overlap_with_truth"] == overlap
    assert report["spectral_l1_vs_truth"] == spectral_l1
    assert report["temporal_l1_vs_truth"] == temporal_l1


@pytest.mark.parametrize("noiseless", [False, True], ids=["1e6", "noiseless"])
@pytest.mark.parametrize("name", sorted(ss.PRESETS))
def test_views_and_truth_distances_rebuild_from_the_run_files(tmp_path, name, noiseless):
    # the views and the summary's distances to the truth are functions of
    # truth_mode.json and result.json: rebuilt from them alone, they are the
    # run's bytes and values
    run, views, ana = tmp_path / "run", tmp_path / "views", tmp_path / "ana"
    argv = ["pipeline", "--preset", name, "--out", str(run), "--quiet"]
    assert main(argv + ["--noiseless"] * noiseless) == 0
    views.mkdir()
    result = ss.load_result(run / "result.json")
    truth = ss.load_mode(run / "truth_mode.json")
    for view in analysis.save_views(str(views), truth, result):
        assert (views / view).read_bytes() == (run / view).read_bytes(), view
    assert main(["analyze", str(run / "result.json"), "--truth", str(run / "truth_mode.json"),
                 "--out", str(ana), "--quiet"]) == 0
    report = json.loads((ana / "report.json").read_text(encoding="utf-8"))
    summary = json.loads((run / "summary.json").read_text(encoding="utf-8"))
    shared = report.keys() & summary.keys()
    assert {"overlap_with_truth", "spectral_l1_vs_truth", "temporal_l1_vs_truth"} <= shared
    assert {key: report[key] for key in shared} == {key: summary[key] for key in shared}


def test_phase_csv_truth_is_unwrapped_like_the_recovery(tmp_path):
    out = tmp_path / "run"
    argv = ["pipeline", "--preset", "quadratic", "--noiseless", "--out", str(out), "--quiet"]
    assert main(argv) == 0
    _, truth, recovered, valid = np.loadtxt(out / "phase.csv", delimiter=",", skiprows=1).T
    valid = valid == 1
    assert valid.sum() > 100
    assert np.max(np.abs(truth[valid] - recovered[valid])) < 0.01


def test_v_phase_echo_carries_reconstruction_settings(tmp_path):
    run, rec = tmp_path / "run", tmp_path / "rec"
    argv = ["pipeline", "--preset", "v-phase", "--noiseless", "--out", str(run), "--quiet"]
    assert main(argv) == 0
    echo = json.loads((run / "config_echo.json").read_text(encoding="utf-8"))
    assert ss.FtsiSettings(**echo["reconstruction"]) == ss.preset("v-phase").reconstruction
    assert ss.FtsiSettings(**echo["reconstruction"]) == ss.FtsiSettings()
    assert "integration_method" not in echo["reconstruction"]
    assert main(
        [
            "reconstruct",
            str(run / "interferogram.csv"),
            "--config",
            str(run / "config_echo.json"),
            "--out",
            str(rec),
            "--quiet",
        ]
    ) == 0
    assert (rec / "result.json").read_bytes() == (run / "result.json").read_bytes()


@pytest.mark.parametrize("delay_fs", [5000.0, 6000.0])
def test_v_phase_echo_reconstructs_at_an_edited_delay(tmp_path, delay_fs):
    # the sideband window follows delay_fs: no preset pins a width
    run = tmp_path / "run"
    argv = ["pipeline", "--preset", "v-phase", "--noiseless", "--out", str(run), "--quiet"]
    assert main(argv) == 0
    echo = json.loads((run / "config_echo.json").read_text(encoding="utf-8"))
    echo["interferometer"]["delay_fs"] = delay_fs
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(echo), encoding="utf-8")
    out = tmp_path / "out"
    assert main(
        ["pipeline", "--config", str(edited), "--noiseless", "--out", str(out), "--quiet"]
    ) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["delay_fs"] == delay_fs
    assert summary["overlap_with_truth"] > 0.99


def test_quiet_suppresses_stdout(tmp_path, capsys):
    out = tmp_path / "q"
    assert main(
        ["pipeline", "--preset", "quadratic", "--noiseless", "--out", str(out), "--quiet"]
    ) == 0
    assert capsys.readouterr().out == ""

    out2 = tmp_path / "loud"
    assert main(["pipeline", "--preset", "quadratic", "--noiseless", "--out", str(out2)]) == 0
    text = capsys.readouterr().out
    assert "phi2_fs2" in text and "overlap_with_truth" in text


def test_exit_2_config_problems(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "x")]) == 2
    assert f"{missing}: No such file or directory" in capsys.readouterr().err

    cfg = write_config(tmp_path)
    assert main(
        ["simulate", "--config", cfg, "--preset", "quadratic", "--out", str(tmp_path / "y")]
    ) == 2

    seedless = write_config(tmp_path, "seedless.json", **{"interferometer.seed": None})
    assert main(["simulate", "--config", seedless, "--out", str(tmp_path / "z")]) == 2
    assert "seed" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--preset", "no-such-preset", "--out", str(tmp_path / "w")])
    assert exc.value.code == 2

    sim = tmp_path / "sim"
    assert main(["simulate", "--preset", "quadratic", "--out", str(sim), "--quiet"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "reconstruct",
                str(sim / "interferogram.csv"),
                "--config",
                cfg,
                "--trials",
                "2",
                "--out",
                str(tmp_path / "t"),
            ]
        )
    assert exc.value.code == 2
    # shear has to come from somewhere
    assert main(
        ["reconstruct", str(sim / "interferogram.csv"), "--tau-fs", "10000",
         "--out", str(tmp_path / "u")]
    ) == 2
    # and stay below a quarter of the record's span, 20.0 nm at 830 nm
    capsys.readouterr()
    for shear_nm in ("30", "1e300"):
        rec = tmp_path / f"wide{shear_nm}"
        assert main(
            ["reconstruct", str(sim / "interferogram.csv"), "--shear-nm", shear_nm,
             "--center-nm", "830", "--tau-fs", "10000", "--out", str(rec)]
        ) == 2
        assert "exceeds the grid headroom" in capsys.readouterr().err
        assert not rec.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "result.json", "--seed", "1"],
        ["analyze", "result.json", "--config", "run.json"],
        ["reconstruct", "record.csv", "--seed", "1"],
        ["reconstruct", "record.csv", "--filter-center", "10000"],
        ["pipeline", "--preset", "v-phase", "--compare", "lambda-phase"],
    ],
    ids=["analyze --seed", "analyze --config", "reconstruct --seed", "reconstruct --filter-center",
         "pipeline --compare"],
)
def test_flags_a_command_would_ignore_are_refused(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_trials_is_a_run_flag(tmp_path):
    # only simulate and pipeline repeat a run; analyze has nothing to repeat
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "result.json", "--trials", "2", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [(["reconstruct", "none.csv", "--shear-nm", "0.58", "--center-nm", "830"], "delay must come"),
     (["reconstruct", "none.csv", "--shear-nm", "0.58", "--tau-fs", "10000"], "needs --center-nm"),
     (["reconstruct", "none.csv", "--shear-nm", "0.58", "--shear-rad-per-fs", str(SHEAR),
       "--tau-fs", "10000"], "one shear unit"),
     (["pipeline"], "--config PATH or --preset NAME"),
     *[(["reconstruct", "none.csv", "--shear-nm", "0.58", "--center-nm", "830", "--tau-fs", tau],
        f"--tau-fs must be positive and finite, got {tau}") for tau in ("inf", "nan", "-5", "0")],
     (["reconstruct", "none.csv", "--shear-rad-per-fs", "inf", "--tau-fs", "10000"],
      "--shear-rad-per-fs must be finite"),
     (["reconstruct", "none.csv", "--shear-nm", "nan", "--center-nm", "830", "--tau-fs", "10000"],
      "--shear-nm must be finite"),
     *[(["reconstruct", "none.csv", "--shear-nm", "0.58", "--center-nm", centre, "--tau-fs",
         "10000"], "--center-nm must be positive and finite") for centre in ("nan", "-5", "0")],
     *[(["reconstruct", "none.csv", "--shear-nm", shear, "--center-nm", centre, "--tau-fs",
         "10000"], "does not convert to a finite rad/fs value")
       for shear, centre in (("0.58", "1e-300"), ("1e300", "1e-5"))]],
    ids=["no delay", "shear-nm without a centre", "both shear units", "pipeline without a run",
         "tau-fs inf", "tau-fs nan", "tau-fs -5", "tau-fs 0", "shear-rad-per-fs inf",
         "shear-nm nan", "center-nm nan", "center-nm -5", "center-nm 0", "centre 1e-300 nm",
         "shear 1e300 nm at 1e-5 nm"],
)
def test_missing_or_conflicting_inputs_exit_2(tmp_path, capsys, argv, message):
    # checked before the record is read: reading none.csv would exit 4
    out = tmp_path / "out"
    assert main([str(tmp_path / a) if a == "none.csv" else a for a in argv]
                + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_zero_trials_exit_2(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert main([command, "--preset", "quadratic", "--trials", "0", "--out", str(out)]) == 2
    assert "--trials must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_out_below_a_regular_file_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    argv = ["simulate", "--preset", "quadratic", "--noiseless", "--out", str(blocker / "run")]
    assert main(argv) == 4
    assert "cannot create output directory" in capsys.readouterr().err


def test_exit_3_starved_record(tmp_path, capsys):
    cfg = write_config(tmp_path, "starved.json", **{"interferometer.total_counts": 15,
                                                    "interferometer.seed": 11})
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim), "--quiet"]) == 0
    assert main(
        ["reconstruct", str(sim / "interferogram.csv"), "--config", cfg,
         "--out", str(tmp_path / "rec")]
    ) == 3
    assert "reconstruction error" in capsys.readouterr().err


def test_exit_3_without_a_noise_floor(tmp_path, capsys):
    # at 29 ps, near the 29.4 ps longest delay of N = 4096, no bin of |F| lies
    # 2*width from both t = 0 and the peak: there is no floor to read an SNR
    # against, so nothing is written in place of an infinite sideband_snr
    cfg = write_config(tmp_path, **{"interferometer.delay_fs": 29000.0})
    out = tmp_path / "run"
    assert main(["pipeline", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "no noise floor" in err and "shorter delay or more n_points" in err
    assert not (out / "result.json").exists() and not (out / "summary.json").exists()


def test_exit_4_data_problems(tmp_path, capsys):
    broken = tmp_path / "broken.csv"
    broken.write_text("omega_rad_per_fs,plus,minus\n2.2,1.0\n", encoding="utf-8")
    assert main(
        ["reconstruct", str(broken), "--shear-rad-per-fs", str(SHEAR), "--tau-fs", "10000",
         "--out", str(tmp_path / "rec")]
    ) == 4
    assert ":2:" in capsys.readouterr().err

    sim = tmp_path / "sim"
    assert main(
        ["simulate", "--preset", "quadratic", "--noiseless", "--out", str(sim), "--quiet"]
    ) == 0
    rec = tmp_path / "rec2"
    assert main(
        ["reconstruct", str(sim / "interferogram.csv"), "--shear-nm", "0.58",
         "--center-nm", "830", "--tau-fs", "10000", "--out", str(rec), "--quiet"]
    ) == 0
    other_grid = ss.make_grid(ss.wavelength_to_omega(830.0), 12.0 * ss.shear_nm_to_omega(8.0, 830.0), 4096)
    other = ss.synthesize(ss.PulseSpec(830.0, 8.0), other_grid)
    ss.save_mode(other, tmp_path / "other_truth.json")
    assert main(
        ["analyze", str(rec / "result.json"), "--truth", str(tmp_path / "other_truth.json"),
         "--out", str(tmp_path / "ana")]
    ) == 4
    # mode_overlap's refusal, prefixed with the result file
    assert f"{rec / 'result.json'}: modes live on different grids" in capsys.readouterr().err

    # a directory where the result should be: the OSError exits 4
    assert main(["analyze", str(rec), "--out", str(tmp_path / "ana")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(rec) in err


def test_analyze_non_integral_grid_exits_4(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["pipeline", "--preset", "quadratic", "--noiseless", "--out", str(run),
                 "--quiet"]) == 0
    result = json.loads((run / "result.json").read_text(encoding="utf-8"))
    result["grid"]["n_points"] = 4096.9
    bad = tmp_path / "result.json"
    bad.write_text(json.dumps(result), encoding="utf-8")
    assert main(["analyze", str(bad), "--out", str(tmp_path / "ana"), "--quiet"]) == 4
    assert "n_points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scale, message",
    [(2.0, "mode norm"), (0.0, "mode norm"),
     (1e200, "amplitude has non-finite values or an overflowing norm")],
    ids=["doubled", "zero", "overflowing norm"],
)
def test_analyze_amplitude_that_is_not_unit_norm_exits_4(tmp_path, capsys, scale, message):
    run = tmp_path / "run"
    assert main(["pipeline", "--preset", "quadratic", "--noiseless", "--out", str(run),
                 "--quiet"]) == 0
    result = json.loads((run / "result.json").read_text(encoding="utf-8"))
    result["amplitude_abs"] = [scale * a for a in result["amplitude_abs"]]
    bad = tmp_path / "result.json"
    bad.write_text(json.dumps(result), encoding="utf-8")
    assert main(["analyze", str(bad), "--out", str(tmp_path / "ana"), "--quiet"]) == 4
    assert f"{bad}: {message}" in capsys.readouterr().err


def test_analyze_string_mask_exits_4(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["pipeline", "--preset", "quadratic", "--noiseless", "--out", str(run),
                 "--quiet"]) == 0
    result = json.loads((run / "result.json").read_text(encoding="utf-8"))
    result["valid_mask"] = ["false"] * len(result["valid_mask"])
    bad = tmp_path / "result.json"
    bad.write_text(json.dumps(result), encoding="utf-8")
    assert main(["analyze", str(bad), "--out", str(tmp_path / "ana"), "--quiet"]) == 4
    assert "valid_mask" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, edit, message",
    [("valid_mask", lambda mask: [False] * len(mask), "not enough weighted bins"),
     ("diagnostics", lambda diag: [list(pair) for pair in diag.items()],
      "'diagnostics' must be an object"),
     ("phase_difference", None, "'phase_difference'"),
     ("phase_rad", lambda phase: phase[:-1], "phase_rad needs 4096 finite values"),
     ("amplitude_abs", lambda amp: [-1e-7] + amp[1:], "must be non-negative"),
     ("coefficients", lambda coef: {**coef, "phi2_fs2": "87000"}, "coefficients.phi2_fs2"),
     ("coefficients", lambda coef: {**coef, "phi3_fs3": True}, "coefficients.phi3_fs3"),
     ("diagnostics", lambda diag: {**diag, "visibility": float("nan")}, "diagnostics.visibility")],
    ids=["mask without valid bins", "diagnostics as pairs", "no phase_difference",
         "short phase_rad", "negative amplitude_abs", "string coefficient",
         "boolean coefficient", "NaN diagnostic"],
)
def test_analyze_malformed_result_exits_4_naming_the_file(tmp_path, capsys, key, edit, message):
    run = tmp_path / "run"
    assert main(["pipeline", "--preset", "quadratic", "--noiseless", "--out", str(run),
                 "--quiet"]) == 0
    result = json.loads((run / "result.json").read_text(encoding="utf-8"))
    if edit is None:  # the key is missing
        del result[key]
    else:
        result[key] = edit(result[key])
    bad = tmp_path / "result.json"
    bad.write_text(json.dumps(result), encoding="utf-8")
    assert main(["analyze", str(bad), "--out", str(tmp_path / "ana"), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


@pytest.mark.parametrize(
    "edit, message",
    [(lambda mode: mode["grid"].update(n_points=4096.5), "n_points"),
     (lambda mode: mode.pop("phase_rad"), "'phase_rad'"),
     (lambda mode: mode.update(amplitude_abs=[2.0 * a for a in mode["amplitude_abs"]]),
      "mode norm"),
     (lambda mode: mode["amplitude_abs"].__setitem__(0, -1e-7), "must be non-negative"),
     (lambda mode: mode.update(amplitude_abs=[1e200 * a for a in mode["amplitude_abs"]]),
      "amplitude has non-finite values or an overflowing norm")],
    ids=["non-integral n_points", "no phase_rad", "not unit-norm", "negative amplitude_abs",
         "overflowing norm"],
)
def test_analyze_malformed_truth_exits_4_naming_the_file(tmp_path, capsys, edit, message):
    run = tmp_path / "run"
    assert main(["pipeline", "--preset", "quadratic", "--noiseless", "--out", str(run),
                 "--quiet"]) == 0
    truth = json.loads((run / "truth_mode.json").read_text(encoding="utf-8"))
    edit(truth)
    bad = tmp_path / "truth_mode.json"
    bad.write_text(json.dumps(truth), encoding="utf-8")
    assert main(["analyze", str(run / "result.json"), "--truth", str(bad),
                 "--out", str(tmp_path / "ana"), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--preset", "quadratic"],
     ["pipeline", "--preset", "quadratic"],
     ["reconstruct", "none.csv", "--shear-rad-per-fs", str(SHEAR), "--tau-fs", "10000"],
     ["analyze", "none.json"]],
    ids=["simulate", "pipeline", "reconstruct", "analyze"],
)
def test_empty_out_exits_2_naming_the_flag(tmp_path, capsys, monkeypatch, argv):
    # an empty --out is refused, not read as no flag: nothing lands in ./out
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "", "--quiet"]) == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, code",
    [(["reconstruct", "BAD", "--shear-rad-per-fs", str(SHEAR), "--tau-fs", "10000"], 4),
     (["analyze", "BAD"], 4),
     (["analyze", "RESULT", "--truth", "BAD"], 4),
     (["pipeline", "--config", "BAD"], 2),
     (["reconstruct", "RECORD", "--config", "BAD"], 2)],
    ids=["reconstruct record", "analyze result", "analyze truth", "pipeline config",
         "reconstruct config"],
)
def test_file_that_is_not_utf8_exits_naming_it(tmp_path, capsys, quad_record, shear_cfg,
                                               settings, argv, code):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00bad")
    ss.save_result(ss.reconstruct(quad_record, shear_cfg, settings), tmp_path / "result.json")
    ss.save_interferogram_csv(quad_record, tmp_path / "record.csv")
    paths = {"BAD": bad, "RESULT": tmp_path / "result.json", "RECORD": tmp_path / "record.csv"}
    out = tmp_path / "out"
    assert main([str(paths.get(a, a)) for a in argv] + ["--out", str(out), "--quiet"]) == code
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_utf8_byte_order_mark_is_skipped(tmp_path):
    run = tmp_path / "run"
    assert main(["pipeline", "--preset", "quadratic", "--out", str(run), "--quiet"]) == 0

    def with_bom(name):
        path = tmp_path / f"bom_{name}"
        path.write_bytes(b"\xef\xbb\xbf" + (run / name).read_bytes())
        return str(path)

    echo = str(run / "config_echo.json")
    argvs = {
        "record": ["reconstruct", with_bom("interferogram.csv"), "--config", echo],
        "echo": ["pipeline", "--config", with_bom("config_echo.json")],
    }
    for what, argv in argvs.items():
        assert main(argv + ["--out", str(tmp_path / what), "--quiet"]) == 0, what
        assert (tmp_path / what / "result.json").read_bytes() == (run / "result.json").read_bytes()
    # result.json and truth_mode.json: analyze reports the same bytes
    assert main(["analyze", str(run / "result.json"), "--truth", str(run / "truth_mode.json"),
                 "--out", str(tmp_path / "plain"), "--quiet"]) == 0
    assert main(["analyze", with_bom("result.json"), "--truth", with_bom("truth_mode.json"),
                 "--out", str(tmp_path / "bom"), "--quiet"]) == 0
    report = (tmp_path / "plain" / "report.json").read_bytes()
    assert (tmp_path / "bom" / "report.json").read_bytes() == report


@pytest.mark.parametrize("command", ["pipeline", "analyze"])
def test_analysis_report_takes_two_temporal_profiles(tmp_path, monkeypatch, command):
    # one of the mode, reused by transform_limit_ratio, and one of its
    # transform-limited twin
    run = tmp_path / "run"
    if command == "analyze":
        assert main(["pipeline", "--preset", "quadratic", "--out", str(run), "--quiet"]) == 0
    profiled = []

    def counted(mode, *args, **kwargs):
        profiled.append(mode)
        return ss.temporal_profile(mode, *args, **kwargs)

    monkeypatch.setattr(analysis, "temporal_profile", counted)
    argv = {"pipeline": ["pipeline", "--preset", "quadratic", "--out", str(run)],
            "analyze": ["analyze", str(run / "result.json"), "--out", str(tmp_path / "ana")]}
    assert main(argv[command] + ["--quiet"]) == 0
    assert len(profiled) == 2
    report = tmp_path / ("ana/report.json" if command == "analyze" else "run/summary.json")
    ratio = json.loads(report.read_text(encoding="utf-8"))["transform_limit_ratio"]
    assert ratio == ss.transform_limit_ratio(profiled[0], ss.temporal_profile(profiled[0])[0])


def test_python_dash_m_entry_point_returns_the_exit_code(tmp_path):
    src = str(Path(ss.__file__).resolve().parents[1])
    pythonpath = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "shearspec", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)

    missing = run("analyze", "missing.json", "--out", "out")
    assert missing.returncode == 4
    assert "missing.json" in missing.stderr
    helped = run("--help")
    assert helped.returncode == 0 and "pipeline" in helped.stdout
