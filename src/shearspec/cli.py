"""Command-line front end: simulate, reconstruct, analyze, pipeline.

Every command is config-driven and deterministic: the same config (seed
included) produces byte-identical outputs.  Exit codes: 0 success, 2 config
validation, 3 reconstruction quality, 4 file format / I/O.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .analysis import report, save_views, save_wigner_csv
from .config import (
    PRESETS,
    RunConfig,
    build_grid,
    config_to_dict,
    derive_seed,
    ftsi_settings,
    grid_center_nm,
    load_config,
    preset,
    shear_config,
    validate_config,
)
from .core import load_mode, save_mode, shear_nm_to_omega, write_json
from .errors import ConfigError, DataFormatError, ReconstructionError
from .interferometer import (
    ShearConfig,
    detect_counts,
    ideal_interferogram,
    load_interferogram_csv,
    save_interferogram_csv,
)
from .reconstruction import (
    FtsiSettings,
    calibrate_delay,
    fit_to_dict,
    load_result,
    reconstruct,
    save_result,
)
from .synthesis import PulseSpec, synthesize


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _ensure_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataFormatError(f"cannot create output directory {path}: {exc.strerror}") from None
    return path


def _resolve_run_config(args) -> RunConfig:
    """Merge preset/config file with command-line overrides; a noisy run needs a seed."""
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = preset(args.preset)
    else:
        raise ConfigError("a run needs --config PATH or --preset NAME")
    # --seed, --noiseless and --out override the config; None or false keeps it
    det = cfg.interferometer
    det = replace(det, seed=det.seed if args.seed is None else args.seed,
                  noiseless=det.noiseless or args.noiseless)
    outputs = replace(cfg.outputs, directory=args.out or cfg.outputs.directory)
    cfg = replace(cfg, interferometer=det, outputs=outputs)
    validate_config(cfg)
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    if not cfg.interferometer.noiseless and cfg.interferometer.seed is None:
        raise ConfigError("config: a seed is required when noiseless is false")
    return cfg


def _start_run(cfg: RunConfig):
    """Output directory with config_echo.json, the truth mode and its ideal record."""
    outdir = _ensure_dir(cfg.outputs.directory)
    write_json(config_to_dict(cfg), os.path.join(outdir, "config_echo.json"))
    mode = synthesize(cfg.pulse, build_grid(cfg))
    return outdir, mode, ideal_interferogram(mode, shear_config(cfg))


def _trial_prefix(trial: int, trials: int) -> str:
    """Where a trial's files go, relative to the output directory."""
    return "" if trials == 1 else f"trial_{trial:03d}/"


def _save_record(outdir: str, prefix: str, rec, result=None) -> list:
    """Write rec (and result) under outdir/prefix; their paths relative to outdir."""
    _ensure_dir(os.path.join(outdir, prefix))
    names = [prefix + "interferogram.csv"]
    save_interferogram_csv(rec, os.path.join(outdir, names[0]))
    if result is not None:
        names.append(prefix + "result.json")
        save_result(result, os.path.join(outdir, names[1]))
    return names


def _detect(cfg: RunConfig, ideal, purpose: str, trial: int):
    det = cfg.interferometer
    if det.noiseless:
        return ideal
    return detect_counts(ideal, det.total_counts, derive_seed(det.seed, purpose, trial))


# ---- simulate ----------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _resolve_run_config(args)
    outdir, mode, ideal = _start_run(cfg)
    save_mode(mode, os.path.join(outdir, "truth_mode.json"))
    for trial in range(args.trials):
        rec = _detect(cfg, ideal, "counts", trial)
        _save_record(outdir, _trial_prefix(trial, args.trials), rec)
    _say(args, f"wrote interferogram.csv, truth_mode.json, config_echo.json under {outdir}")
    return 0


# ---- reconstruct -------------------------------------------------------------

def _reconstruct_inputs(args):
    """The ShearConfig, FtsiSettings and DelayCalibration (or None) for the record.

    Each flag replaces the config's value; every rule raises ConfigError before
    the record is read.  A shear in nm converts at --center-nm, else at the
    config's grid centre; one in rad/fs refuses --center-nm.  --calibrate-from
    fits the delay, searching around the given one, else its record's sideband."""
    for name in ("tau_fs", "shear_nm", "shear_rad_per_fs", "center_nm"):
        value, positive = getattr(args, name), name in ("tau_fs", "center_nm")
        if value is not None and not (np.isfinite(value) and (value > 0 or not positive)):
            rule = "positive and finite" if positive else "finite"
            raise ConfigError(f"--{name.replace('_', '-')} must be {rule}, got {value:g}")
    base = load_config(args.config) if args.config else None
    nm, rad, center, tau = args.shear_nm, args.shear_rad_per_fs, args.center_nm, args.tau_fs
    if base is not None:
        det = base.interferometer
        if nm is None and rad is None:
            nm, rad = det.shear_nm, det.shear_rad_per_fs
        if center is None and rad is None:
            center = grid_center_nm(base)
        tau = det.delay_fs if tau is None else tau
    if nm is not None and rad is not None:
        raise ConfigError("give one shear unit, not both")
    if rad is not None and center is not None:
        raise ConfigError("--center-nm converts a shear in nm, and this shear is in rad/fs")
    if nm is None and rad is None:
        raise ConfigError("shear must come from --shear-nm, --shear-rad-per-fs, or --config")
    if rad is None and center is None:
        raise ConfigError("--shear-nm needs --center-nm (or --config) for conversion")
    try:
        shear = rad if rad is not None else shear_nm_to_omega(nm, center)
    except ValueError as exc:
        raise ConfigError(f"shear: {exc}") from None
    flags = {f.name: v for f in fields(FtsiSettings) if (v := getattr(args, f.name)) is not None}
    try:
        settings = replace(ftsi_settings(base) if base else FtsiSettings(), **flags)
    except ValueError as exc:
        raise ConfigError(f"reconstruction settings: {exc}") from None
    if args.calibrate_from:
        calibration = calibrate_delay(load_interferogram_csv(args.calibrate_from), settings, tau)
        return ShearConfig(shear=shear, delay=calibration.tau_fs), settings, calibration
    if tau is None:
        raise ConfigError("delay must come from --tau-fs, --config, or --calibrate-from")
    return ShearConfig(shear=shear, delay=tau), settings, None


def cmd_reconstruct(args) -> int:
    sc, settings, calibration = _reconstruct_inputs(args)
    result = reconstruct(load_interferogram_csv(args.interferogram), sc, settings)
    if calibration is not None:
        result.diagnostics["tau_calibrated"] = True
        result.diagnostics["tau_calibration_stderr_fs"] = calibration.stderr_fs

    outdir = _ensure_dir(args.out or "out")
    path = os.path.join(outdir, "result.json")
    save_result(result, path)
    fit = result.coefficients
    _say(
        args,
        f"phi2 = {fit.coefficient(2):.4g} +- {fit.stderr(2):.2g} fs^2, "
        f"phi3 = {fit.coefficient(3):.4g} +- {fit.stderr(3):.2g} fs^3 -> {path}",
    )
    return 0


# ---- analyze -----------------------------------------------------------------

def cmd_analyze(args) -> int:
    result = load_result(args.result)
    truth = load_mode(args.truth) if args.truth else None
    try:  # an amplitude that is not unit-norm, or too few valid bins for the V slope
        out = report(result, truth)
    except ValueError as exc:
        raise DataFormatError(f"{args.result}: {exc}") from None

    outdir = _ensure_dir(args.out or "out")
    if args.wigner:
        save_wigner_csv(result.mode(), os.path.join(outdir, "wigner.csv"))
    write_json(out, os.path.join(outdir, "report.json"))
    overlap = out.get("overlap_with_truth")
    tail = f", overlap {overlap:.4f}" if overlap is not None else ""
    _say(args, f"fwhm {out['fwhm_fs']:.1f} fs, {out['peak_count']} peak(s){tail} -> {outdir}")
    return 0


# ---- pipeline ----------------------------------------------------------------

def _compensated_pulse(pulse: PulseSpec, fitted_phi2: float) -> PulseSpec:
    coeffs = list(pulse.poly_coeffs) + [0.0] * (2 - len(pulse.poly_coeffs))
    coeffs[1] = coeffs[1] - fitted_phi2
    return replace(pulse, poly_coeffs=tuple(coeffs))


def cmd_pipeline(args) -> int:
    """Run the trials; only trial 0 writes its records, every trial adds to per-trial lists.

    A trial is its list of (prefix, record, result) stages.  Compensated runs
    measure twice: stage 1 fits phi2, then the pulse is re-synthesized with
    that phi2 removed and measured again, so only the last stage is per
    trial.  `simulate --config config_echo.json --trials N` rebuilds any
    trial's record, except compensated stage-2 records, which depend on
    their trial's stage-1 fit.
    """
    cfg = _resolve_run_config(args)
    outdir, mode, ideal = _start_run(cfg)
    sc, settings = shear_config(cfg), ftsi_settings(cfg)
    files = ["config_echo.json", "truth_mode.json", "summary.json"]
    per_trial = {}
    for trial in range(args.trials):
        trial_mode, trial_ideal, purpose, stages = mode, ideal, "counts", []
        if cfg.compensate_phi2:
            rec = _detect(cfg, ideal, purpose, trial)
            stages.append(("stage1/", rec, reconstruct(rec, sc, settings)))
            fitted = stages[0][2].coefficients.coefficient(2)
            trial_mode = synthesize(_compensated_pulse(cfg.pulse, fitted), mode.grid)
            trial_ideal, purpose = ideal_interferogram(trial_mode, sc), "counts-stage2"
        rec = _detect(cfg, trial_ideal, purpose, trial)
        stages.append((_trial_prefix(0, args.trials), rec, reconstruct(rec, sc, settings)))
        result = stages[-1][2]
        if trial == 0:
            # the truth as truth_mode.json holds it, so that analyze --truth
            # rebuilds the summary's distances and the views from the files
            first, truth = result, save_mode(trial_mode, os.path.join(outdir, "truth_mode.json"))
            for stage in stages:
                files += _save_record(outdir, *stage)
        stats = fit_to_dict(result.coefficients)
        stats.update((key, result.diagnostics[key]) for key in ("visibility", "sideband_snr"))
        if cfg.compensate_phi2:
            stats["stage1_phi2_fs2"] = stages[0][2].coefficients.coefficient(2)
        for key, value in stats.items():
            per_trial.setdefault(key, []).append(float(value))

    det = cfg.interferometer
    summary = dict(report(first, truth), pulse=config_to_dict(cfg)["pulse"],
                   shear_rad_per_fs=sc.shear, delay_fs=det.delay_fs,
                   noiseless=det.noiseless, seed=det.seed, total_counts=det.total_counts)
    if cfg.compensate_phi2:
        summary["stage1_phi2_fs2"] = per_trial["stage1_phi2_fs2"][0]
    if args.trials > 1:
        p2 = np.array(per_trial["phi2_fs2"])
        p3 = np.array(per_trial["phi3_fs3"])
        summary["trials"] = {
            "n": args.trials,
            "phi2_fs2_mean": float(p2.mean()),
            "phi2_fs2_sd": float(p2.std(ddof=1)),
            "phi3_fs3_mean": float(p3.mean()),
            "phi3_fs3_sd": float(p3.std(ddof=1)),
            **per_trial,
        }
    files += save_views(outdir, truth, first)
    summary["files"] = sorted(files)
    write_json(summary, os.path.join(outdir, "summary.json"))

    co = summary["coefficients"]
    rows = [
        ("output", outdir),
        ("phi2_fs2", f"{co['phi2_fs2']:.4g} +- {co['phi2_fs2_stderr']:.2g}"),
        ("phi3_fs3", f"{co['phi3_fs3']:.4g} +- {co['phi3_fs3_stderr']:.2g}"),
        ("v_slope_fs", f"{summary['v_slope_fs']:.4g} +- {summary['v_slope_fs_stderr']:.2g}"),
        ("fwhm_fs", f"{summary['fwhm_fs']:.1f}"),
        ("peaks", " ".join(f"{t:.0f}" for t in summary["peak_times_fs"]) or "none"),
        ("overlap_with_truth", f"{summary['overlap_with_truth']:.4f}"),
        ("visibility", f"{summary['diagnostics']['visibility']:.3f}"),
    ]
    if "stage1_phi2_fs2" in summary:
        rows.insert(1, ("stage1_phi2_fs2", f"{summary['stage1_phi2_fs2']:.4g}"))
    if "trials" in summary:
        tr = summary["trials"]
        rows.append(("trials", f"{tr['n']}: phi2 {tr['phi2_fs2_mean']:.4g} sd {tr['phi2_fs2_sd']:.2g}"))
    for key, value in rows:
        _say(args, f"{key:<20s} {value}")
    return 0


# ---- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shearspec",
        description="Simulate and reconstruct single-photon spectral-shearing interferograms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, run=False):
        # a run (simulate, pipeline) is the only command that draws counts
        if config:
            p.add_argument("--config", metavar="PATH", help="run configuration JSON")
        p.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if run:
            p.add_argument("--trials", type=int, default=1, metavar="N", help="Monte Carlo repetitions")
            p.add_argument("--seed", type=int, metavar="U64", help="root seed (overrides config)")
            p.add_argument("--preset", choices=sorted(PRESETS), help="shipped scenario")
            p.add_argument("--noiseless", action="store_true", help="skip photon counting")

    p_sim = sub.add_parser("simulate", help="synthesize a pulse and write its interferogram")
    common(p_sim, run=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("reconstruct", help="recover the complex mode from a CSV record")
    common(p_rec)
    p_rec.add_argument("interferogram", help="interferogram CSV path")
    p_rec.add_argument("--tau-fs", type=float, help="carrier delay in fs")
    p_rec.add_argument("--shear-nm", type=float, help="shear in nm")
    p_rec.add_argument("--shear-rad-per-fs", type=float, help="shear in rad/fs")
    p_rec.add_argument("--center-nm", type=float, help="carrier wavelength for --shear-nm")
    p_rec.add_argument("--calibrate-from", metavar="CSV",
                       help="zero-shear record; fit tau from its fringe slope")
    # one flag per FtsiSettings field, each a float
    helps = {"filter_width": "HWHM, fs (default: from the delay)"}
    for f in fields(FtsiSettings):
        p_rec.add_argument("--" + f.name.replace("_", "-"), type=float, help=helps.get(f.name))
    p_rec.set_defaults(func=cmd_reconstruct)

    p_ana = sub.add_parser("analyze", help="profile a reconstruction result")
    common(p_ana, config=False)
    p_ana.add_argument("result", help="result JSON path")
    p_ana.add_argument("--truth", metavar="MODE",
                       help="mode to compare with: truth_mode.json or another run's result.json")
    p_ana.add_argument("--wigner", action="store_true", help="also export wigner.csv")
    p_ana.set_defaults(func=cmd_analyze)

    p_pipe = sub.add_parser("pipeline", help="simulate, reconstruct, analyze in one run")
    common(p_pipe, run=True)
    p_pipe.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out == "":  # every command takes --out; without the flag it is None
            raise ConfigError("--out must be a non-empty directory path")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ReconstructionError as exc:
        print(f"reconstruction error: {exc}", file=sys.stderr)
        return 3
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
