"""The two-output interferogram model, its photon counting and its CSV.

The two outputs of the interferometer follow

    S+-(omega) = 1/4 { S(omega) + S(omega+W)
                       +- 2 Re[ psi~(omega) psi~*(omega+W) e^{i omega tau} ] }

with W the spectral shear and tau the interferometric delay.
ideal_interferogram evaluates it in one place; apply_shear is the one
optics step it borrows.  Summing the outputs cancels the fringes and
recovers the spectral envelope; the difference record carries the fringe
term the reconstruction works on.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    SpectralGrid,
    SpectralMode,
    freeze_field,
    spectral_to_temporal_array,
    temporal_to_spectral_array,
    write_columns,
)
from .errors import DataFormatError

CSV_HEADER = ["omega_rad_per_fs", "plus", "minus"]
MAX_COUNTS = 2**53  # every count stays an exact float64 integer


@dataclass(frozen=True)
class ShearConfig:
    """Interferometer settings: shear [rad/fs, signed] and delay [fs]."""

    shear: float
    delay: float

    def __post_init__(self):
        if not (np.isfinite(self.shear) and np.isfinite(self.delay)):
            raise ValueError("shear and delay must be finite")


@dataclass(frozen=True)
class Interferogram:
    """Two-output spectral record, either ideal intensities or Poisson counts.

    It holds what interferogram.csv holds; the shear and delay it is
    analysed at are the analysis's ShearConfig argument.
    """

    grid: SpectralGrid
    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        for name in ("plus", "minus"):
            arr = freeze_field(self, name, float, self.grid.n_points)
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be non-negative and finite")

    @cached_property
    def kind(self) -> str:
        """A fact of the values: "counts" when both outputs hold whole numbers
        up to MAX_COUNTS and some intensity, else "ideal"."""
        p, m = self.plus, self.minus
        whole = all(np.all(a == np.round(a)) and a.max() <= MAX_COUNTS for a in (p, m))
        return "counts" if whole and p.sum() + m.sum() > 0 else "ideal"


def check_shear(shear: float, grid: SpectralGrid) -> None:
    """Raise ValueError unless |shear| leaves the grid headroom: below a quarter span."""
    limit = 0.25 * grid.span
    if abs(shear) >= limit:
        raise ValueError(
            f"shear {shear:g} rad/fs exceeds the grid headroom (|shear| < {limit:g})"
        )


def apply_shear(mode: SpectralMode, shear: float) -> SpectralMode:
    """Shift the spectrum by +shear in omega: psi~(omega) -> psi~(omega - shear).

    Implemented as multiplication by exp(-i*shear*t) in the time domain,
    which is exact for any shear, on-grid or not.
    """
    check_shear(shear, mode.grid)
    if shear == 0.0:
        return mode
    temporal = spectral_to_temporal_array(mode.amplitude, mode.grid)
    temporal *= np.exp(-1j * shear * mode.grid.times)
    return SpectralMode(mode.grid, temporal_to_spectral_array(temporal, mode.grid))


def ideal_interferogram(mode: SpectralMode, config: ShearConfig) -> Interferogram:
    """Noise-free two-output record of `mode` for the given shear and delay.

    The delayed arm a = psi~(omega) e^{i omega tau} and the sheared arm
    b = psi~(omega + W) (apply_shear by -W) each carry half the input
    amplitude, so plus+- = 1/4 |a +- b|^2 per bin, the module formula term
    by term.
    """
    a = mode.amplitude * np.exp(1j * mode.grid.omegas * config.delay)
    b = apply_shear(mode, -config.shear).amplitude
    cross = 2.0 * np.real(a * np.conj(b))
    base = np.abs(a) ** 2 + np.abs(b) ** 2
    # roundoff can leave values at -1e-18 where the outputs null perfectly
    plus = np.maximum(0.25 * (base + cross), 0.0)
    minus = np.maximum(0.25 * (base - cross), 0.0)
    return Interferogram(mode.grid, plus, minus)


def detect_counts(interf: Interferogram, total_counts: int, seed: int) -> Interferogram:
    """Poisson photon-counting realization of an ideal record.

    Each bin of each output draws independently from Poisson with mean
    total_counts * p_i, where p_i is the bin's share of the summed
    two-output intensity; the expected total over both outputs is
    total_counts, at most MAX_COUNTS.  Fixed seed gives a fixed record.
    """
    if interf.kind != "ideal":
        raise ValueError("detect_counts expects an ideal interferogram")
    if not 0 <= total_counts <= MAX_COUNTS:
        raise ValueError("total_counts must be non-negative and at most 2**53")
    if seed is None or seed < 0:
        raise ValueError("a non-negative integer seed is required")
    total = float(np.sum(interf.plus) + np.sum(interf.minus))
    if total <= 0:
        raise ValueError("interferogram carries no intensity to detect")
    rng = np.random.default_rng(seed)
    means = np.concatenate([interf.plus, interf.minus]) * (total_counts / total)
    draws = rng.poisson(means)
    n = interf.grid.n_points
    return Interferogram(interf.grid, draws[:n].astype(float), draws[n:].astype(float))


# ---- CSV serialization ------------------------------------------------------

def save_interferogram_csv(interf: Interferogram, path) -> None:
    """Write one row per grid point: omega_rad_per_fs,plus,minus."""
    plus, minus = interf.plus, interf.minus
    if interf.kind == "counts":
        plus, minus = plus.astype(np.int64), minus.astype(np.int64)
    write_columns(path, ",".join(CSV_HEADER), interf.grid.omega_text, plus, minus)


def _exact_step(omegas: np.ndarray, estimate: float) -> float:
    """The step that rebuilds the omega column bit for bit, else `estimate`.

    A column written from a SpectralGrid holds start + step * k exactly, but
    the whole-span estimate misses that step by up to ulp(omega_max)/(n-1),
    a few ulps of the step, which shifts every rebuilt frequency.  Candidates
    within that radius are screened on 64 rows spread from the last one, then
    on the whole column.
    """
    n = len(omegas)
    ulp = np.spacing(estimate)
    radius = int(np.spacing(abs(omegas[-1])) / ((n - 1) * ulp)) + 2
    if radius > 1 << 14:
        return estimate
    offsets = np.arange(-radius, radius + 1)
    candidates = estimate + ulp * offsets[np.argsort(np.abs(offsets), kind="stable")]
    k = np.arange(n)
    rows = k[:: -max(1, n // 64)]
    fits = np.all(omegas[0] + np.outer(candidates, rows) == omegas[rows], axis=1)
    for step in candidates[fits]:
        if np.array_equal(omegas[0] + step * k, omegas):
            return float(step)
    return estimate


def _bulk_columns(fh) -> np.ndarray | None:
    """The body as a (3, rows) array parsed in one C pass, else None.

    np.loadtxt takes the rows the writer writes, with LF, CRLF or CR line
    ends and blank lines, and parses floats as float() does.  It refuses
    whitespace-only lines and quoted or odd cells, and a table that is not
    3 columns is refused here: every file taken is one the row loop reads to
    the same bits (tests/test_interferometer.py probes the cases).
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data"
            table = np.loadtxt(fh, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:  # includes UnicodeDecodeError
        return None
    if table.shape[0] == 0 or table.shape[1] != 3:
        return None
    return table.T


def _row_columns(reader, path) -> tuple:
    """The body as three lists of floats, one csv row at a time; each
    malformed row raises DataFormatError naming its line."""
    omegas, plus, minus = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        try:
            omegas.append(float(row[0]))
            plus.append(float(row[1]))
            minus.append(float(row[2]))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return omegas, plus, minus


def load_interferogram_csv(path) -> Interferogram:
    """Parse an interferogram CSV.  Malformed input reports the line number.

    A leading UTF-8 byte-order mark is skipped.  The body is read by
    np.loadtxt; a file it refuses is read again row by row, which accepts
    what csv and float() accept (quoted cells, say) and names the line of
    the first malformed row.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: empty file") from None
            if [h.strip() for h in header] != CSV_HEADER:
                raise DataFormatError(
                    f"{path}:1: expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
                )
            columns = _bulk_columns(fh)
            if columns is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                columns = _row_columns(reader, path)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None
    omegas, plus, minus = columns
    n = len(omegas)
    if n < 8 or (n & (n - 1)) != 0:
        raise DataFormatError(f"{path}: row count {n} is not a power of two >= 8")
    omegas = np.asarray(omegas)
    # whole-span estimate keeps the step accurate to ~1e-14 relative, where
    # a single first-difference loses digits to cancellation
    step = (omegas[-1] - omegas[0]) / (n - 1)
    # written as a pass test so that a NaN, which fails every comparison, is refused
    if not (step > 0 and np.max(np.abs(np.diff(omegas) - step)) <= 1e-9 * abs(step)):
        raise DataFormatError(f"{path}: omega column is not finite and uniformly spaced")
    grid = SpectralGrid(float(omegas[0]), _exact_step(omegas, float(step)), n)
    try:
        return Interferogram(grid, plus, minus)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
