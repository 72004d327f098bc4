"""Run configuration: JSON schema, presets, and seed derivation.

A run is described by one JSON document with blocks mirroring the library
layers: pulse (synthesis), grid, interferometer (shear/delay/counts/seed),
reconstruction (FtsiSettings overrides), outputs (artifact toggles).  All
validation failures raise ConfigError so the CLI can map them to exit 2.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from .core import SpectralGrid, make_grid, shear_nm_to_omega, wavelength_to_omega, write_json
from .errors import ConfigError
from .interferometer import ShearConfig
from .reconstruction import FtsiSettings
from .synthesis import PHASE_KINDS, PulseSpec

MAX_SEED = 2**64 - 1

_SETTINGS_KEYS = (
    "filter_center",
    "filter_width",
    "filter_shape",
    "filter_order",
    "amplitude_floor",
    "integration_method",
    "correct_envelope_bias",
)


@dataclass(frozen=True)
class GridSpec:
    """Grid block: center defaults to the pulse carrier."""

    center_nm: float | None = None
    span_factor: float = 10.0
    n_points: int = 4096


@dataclass(frozen=True)
class DetectionSpec:
    """Interferometer block: exactly one shear unit must be given."""

    shear_nm: float | None = None
    shear_rad_per_fs: float | None = None
    delay_fs: float = 10000.0
    total_counts: int = 1_000_000
    seed: int | None = None
    noiseless: bool = False


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    spectrum: bool = True
    phase: bool = True
    temporal: bool = True
    wigner: bool = False


@dataclass(frozen=True)
class RunConfig:
    pulse: PulseSpec
    grid: GridSpec = field(default_factory=GridSpec)
    interferometer: DetectionSpec = field(default_factory=DetectionSpec)
    reconstruction: dict = field(default_factory=dict)
    outputs: OutputSpec = field(default_factory=OutputSpec)
    compensate_phi2: bool = False


def _require_block(raw: dict, key: str, where: str) -> dict:
    block = raw.get(key)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: {key!r} must be an object")
    return dict(block)


def _reject_unknown(block: dict, allowed, where: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")


def _num(block: dict, key: str, where: str, required: bool = False):
    if key not in block or block[key] is None:
        if required:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return None
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: {key!r} must be a number")
    return v


def _flag(block: dict, key: str, where: str, default: bool) -> bool:
    v = block.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{where}: {key!r} must be true or false")
    return v


def _pulse_from_dict(block: dict, where: str) -> PulseSpec:
    _reject_unknown(
        block,
        (
            "center_wavelength",
            "fwhm_wavelength",
            "phase_kind",
            "poly_coeffs",
            "v_slope",
            "table_omega",
            "table_phase",
            "table_amplitude",
        ),
        where,
    )
    kind = block.get("phase_kind", "polynomial")
    if kind not in PHASE_KINDS:
        raise ConfigError(f"{where}: phase_kind must be one of {PHASE_KINDS}, got {kind!r}")

    def seq(key):
        v = block.get(key, ())
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"{where}: {key!r} must be an array")
        return tuple(float(x) for x in v)

    try:
        return PulseSpec(
            center_wavelength=float(_num(block, "center_wavelength", where, required=True)),
            fwhm_wavelength=float(_num(block, "fwhm_wavelength", where, required=True)),
            phase_kind=kind,
            poly_coeffs=seq("poly_coeffs") or (0.0,),
            v_slope=float(_num(block, "v_slope", where) or 0.0),
            table_omega=seq("table_omega"),
            table_phase=seq("table_phase"),
            table_amplitude=seq("table_amplitude"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(raw: dict, where: str = "config") -> RunConfig:
    """Build a RunConfig from parsed JSON, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: top level must be an object")
    _reject_unknown(
        raw,
        ("pulse", "grid", "interferometer", "reconstruction", "outputs", "compensate_phi2"),
        where,
    )
    if "pulse" not in raw:
        raise ConfigError(f"{where}: missing required block 'pulse'")
    pulse = _pulse_from_dict(_require_block(raw, "pulse", where), f"{where}.pulse")

    gb = _require_block(raw, "grid", where)
    _reject_unknown(gb, ("center_nm", "span_factor", "n_points"), f"{where}.grid")
    npts = _num(gb, "n_points", f"{where}.grid")
    grid = GridSpec(
        center_nm=_num(gb, "center_nm", f"{where}.grid"),
        span_factor=float(_num(gb, "span_factor", f"{where}.grid") or 10.0),
        n_points=4096 if npts is None else int(npts),
    )

    ib = _require_block(raw, "interferometer", where)
    _reject_unknown(
        ib,
        ("shear_nm", "shear_rad_per_fs", "delay_fs", "total_counts", "seed", "noiseless"),
        f"{where}.interferometer",
    )
    seed = _num(ib, "seed", f"{where}.interferometer")
    if seed is not None:
        seed = int(seed)
        if not 0 <= seed <= MAX_SEED:
            raise ConfigError(f"{where}.interferometer: seed must fit in 64 bits")
    counts = _num(ib, "total_counts", f"{where}.interferometer")
    interferometer = DetectionSpec(
        shear_nm=_num(ib, "shear_nm", f"{where}.interferometer"),
        shear_rad_per_fs=_num(ib, "shear_rad_per_fs", f"{where}.interferometer"),
        delay_fs=float(_num(ib, "delay_fs", f"{where}.interferometer") or 10000.0),
        total_counts=1_000_000 if counts is None else int(counts),
        seed=seed,
        noiseless=_flag(ib, "noiseless", f"{where}.interferometer", False),
    )

    rb = _require_block(raw, "reconstruction", where)
    _reject_unknown(rb, _SETTINGS_KEYS, f"{where}.reconstruction")

    ob = _require_block(raw, "outputs", where)
    _reject_unknown(
        ob, ("directory", "spectrum", "phase", "temporal", "wigner"), f"{where}.outputs"
    )
    directory = ob.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError(f"{where}.outputs: 'directory' must be a non-empty string")
    outputs = OutputSpec(
        directory=directory,
        spectrum=_flag(ob, "spectrum", f"{where}.outputs", True),
        phase=_flag(ob, "phase", f"{where}.outputs", True),
        temporal=_flag(ob, "temporal", f"{where}.outputs", True),
        wigner=_flag(ob, "wigner", f"{where}.outputs", False),
    )

    cfg = RunConfig(
        pulse=pulse,
        grid=grid,
        interferometer=interferometer,
        reconstruction=rb,
        outputs=outputs,
        compensate_phi2=_flag(raw, "compensate_phi2", where, False),
    )
    validate_config(cfg, where)
    return cfg


def validate_config(cfg: RunConfig, where: str = "config") -> None:
    """Cross-field checks shared by file parsing and preset construction."""
    det = cfg.interferometer
    given = [u for u in (det.shear_nm, det.shear_rad_per_fs) if u is not None]
    if len(given) != 1:
        raise ConfigError(
            f"{where}: exactly one of shear_nm / shear_rad_per_fs must be given"
        )
    if not det.delay_fs > 0:
        raise ConfigError(f"{where}: delay_fs must be positive")
    if det.total_counts <= 0:
        raise ConfigError(f"{where}: total_counts must be positive")
    if cfg.grid.center_nm is not None and not cfg.grid.center_nm > 0:
        raise ConfigError(f"{where}: grid center_nm must be positive")
    try:
        build_grid(cfg)
        ftsi_settings(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def require_seed(cfg: RunConfig, where: str = "config") -> None:
    """Noise simulation without a seed is not reproducible; refuse it."""
    if not cfg.interferometer.noiseless and cfg.interferometer.seed is None:
        raise ConfigError(f"{where}: a seed is required when noiseless is false")


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical echo: every field explicit so the echo alone reproduces the run."""
    p = cfg.pulse
    return {
        "pulse": {
            "center_wavelength": p.center_wavelength,
            "fwhm_wavelength": p.fwhm_wavelength,
            "phase_kind": p.phase_kind,
            "poly_coeffs": list(p.poly_coeffs),
            "v_slope": p.v_slope,
            "table_omega": list(p.table_omega),
            "table_phase": list(p.table_phase),
            "table_amplitude": list(p.table_amplitude),
        },
        "grid": {
            "center_nm": cfg.grid.center_nm,
            "span_factor": cfg.grid.span_factor,
            "n_points": cfg.grid.n_points,
        },
        "interferometer": {
            "shear_nm": cfg.interferometer.shear_nm,
            "shear_rad_per_fs": cfg.interferometer.shear_rad_per_fs,
            "delay_fs": cfg.interferometer.delay_fs,
            "total_counts": cfg.interferometer.total_counts,
            "seed": cfg.interferometer.seed,
            "noiseless": cfg.interferometer.noiseless,
        },
        "reconstruction": dict(sorted(cfg.reconstruction.items())),
        "outputs": {
            "directory": cfg.outputs.directory,
            "spectrum": cfg.outputs.spectrum,
            "phase": cfg.outputs.phase,
            "temporal": cfg.outputs.temporal,
            "wigner": cfg.outputs.wigner,
        },
        "compensate_phi2": cfg.compensate_phi2,
    }


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    return config_from_dict(raw, where=str(path))


def save_config(cfg: RunConfig, path) -> None:
    write_json(config_to_dict(cfg), path)


# ---- resolution helpers ------------------------------------------------------

def resolved_shear(cfg: RunConfig) -> float:
    """Shear in rad/fs regardless of which unit the config used."""
    det = cfg.interferometer
    if det.shear_rad_per_fs is not None:
        return float(det.shear_rad_per_fs)
    return shear_nm_to_omega(det.shear_nm, grid_center_nm(cfg))


def grid_center_nm(cfg: RunConfig) -> float:
    """Grid centre [nm]: the grid block's, else the pulse carrier.

    Every nm-to-rad/fs shear conversion for a config uses this wavelength.
    """
    return cfg.grid.center_nm or cfg.pulse.center_wavelength


def build_grid(cfg: RunConfig) -> SpectralGrid:
    span = cfg.grid.span_factor * cfg.pulse.fwhm_omega
    return make_grid(wavelength_to_omega(grid_center_nm(cfg)), span, cfg.grid.n_points)


def shear_config(cfg: RunConfig) -> ShearConfig:
    return ShearConfig(shear=resolved_shear(cfg), delay=cfg.interferometer.delay_fs)


def ftsi_settings(cfg: RunConfig) -> FtsiSettings:
    try:
        return FtsiSettings.for_delay(cfg.interferometer.delay_fs, **cfg.reconstruction)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"reconstruction settings: {exc}") from None


def derive_seed(root: int, purpose: str, trial: int = 0) -> int:
    """Expand the single config seed into independent per-purpose seeds.

    The purpose label is folded in as its CRC-32 so distinct labels give
    uncorrelated streams while the whole expansion stays reproducible.
    """
    seq = np.random.SeedSequence([int(root), zlib.crc32(purpose.encode("utf-8")), int(trial)])
    return int(seq.generate_state(1, np.uint64)[0])


# ---- shipped presets ---------------------------------------------------------

_SHARED_DETECTION = DetectionSpec(shear_nm=0.58, delay_fs=10000.0, total_counts=1_000_000, seed=7)


def _scenario(pulse: PulseSpec, compensate: bool = False) -> RunConfig:
    return RunConfig(pulse=pulse, interferometer=_SHARED_DETECTION, compensate_phi2=compensate)


PRESETS = {
    "quadratic": _scenario(
        PulseSpec(830.0, 8.0, "polynomial", poly_coeffs=(0.0, 8.7e4, 5.0e5))
    ),
    "compensated": _scenario(
        PulseSpec(830.0, 8.0, "polynomial", poly_coeffs=(0.0, 8.7e4, 5.0e5)), compensate=True
    ),
    "v-phase": _scenario(PulseSpec(830.0, 8.0, "v_lambda", v_slope=1050.0)),
    "lambda-phase": _scenario(PulseSpec(830.0, 8.0, "v_lambda", v_slope=-1100.0)),
}


def preset(name: str) -> RunConfig:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; available: {known}")
    return PRESETS[name]
