"""Spectral grids, complex modes, and the transforms connecting them.

Units are rad/fs for angular frequency, fs for time, nm for wavelength
throughout the package.  The Fourier convention is

    psi(t) = (1/sqrt(2*pi)) Int psi~(omega) exp(-i*omega*t) domega,

so a spectral phase factor exp(+i*omega*tau) delays the pulse to later
times and the group delay is +dphi/domega.  Both directions are unitary:
sum |psi~|^2 domega == sum |psi|^2 dt to machine precision.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataFormatError

C_NM_PER_FS = 299.792458  # speed of light [nm/fs]


def wavelength_to_omega(wavelength_nm: float) -> float:
    """Angular frequency [rad/fs] of a vacuum wavelength [nm]."""
    if not wavelength_nm > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_nm}")
    return 2.0 * math.pi * C_NM_PER_FS / wavelength_nm


def shear_nm_to_omega(shear_nm: float, center_nm: float) -> float:
    """Convert a wavelength shear [nm] near center_nm to rad/fs.

    First-order conversion Omega = 2*pi*c*dlambda/lambda0^2.  Sign
    convention: a shift toward shorter wavelength is a positive omega
    shear, so positive shear_nm means the spectrum moves up in omega.
    """
    if not center_nm > 0:
        raise ValueError(f"center wavelength must be positive, got {center_nm}")
    try:
        omega = 2.0 * math.pi * C_NM_PER_FS * shear_nm / center_nm**2
    except (ZeroDivisionError, OverflowError):  # the square under- or overflows
        omega = math.nan
    if not math.isfinite(omega):
        raise ValueError(f"{shear_nm:g} nm at a {center_nm:g} nm centre does not convert "
                         "to a finite rad/fs value")
    return omega


def is_number(value) -> bool:
    """A finite int or float, not a bool (int/float comparison is exact)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def is_integral(value) -> bool:
    """A number with no fractional part: 4096 and 4096.0, not 4096.9."""
    return is_number(value) and (isinstance(value, int) or value.is_integer())


def freeze_field(record, name: str, dtype, n_points: int | None = None) -> np.ndarray:
    """Store a read-only copy of `record.name` as `dtype` on a frozen dataclass.

    The copy leaves the caller's array writable.  With n_points the field
    must be one-dimensional of that length.
    """
    arr = _read_only(np.array(getattr(record, name), dtype=dtype))
    if n_points is not None and arr.shape != (n_points,):
        raise ValueError(f"{name} shape {arr.shape} does not match the grid ({n_points},)")
    object.__setattr__(record, name, arr)
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Uniform angular-frequency grid, half-open interval, power-of-two length."""

    omega_start: float
    omega_step: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.omega_start) and np.isfinite(self.omega_step)):
            raise ValueError("grid parameters must be finite")
        if not self.omega_step > 0:
            raise ValueError(f"omega_step must be positive, got {self.omega_step}")
        n = self.n_points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 8, got {n}")

    @property
    def span(self) -> float:
        return self.omega_step * self.n_points

    @property
    def omega_center(self) -> float:
        # index n/2 exactly, n is even by construction
        return self.omega_start + self.omega_step * (self.n_points // 2)

    @cached_property
    def omegas(self) -> np.ndarray:
        return _read_only(self.omega_start + self.omega_step * np.arange(self.n_points))

    @cached_property
    def omega_text(self) -> tuple:
        """`omegas` as CSV cell text, repr of each value, formatted once per grid."""
        return tuple(map(repr, self.omegas.tolist()))

    @property
    def time_step(self) -> float:
        return 2.0 * math.pi / (self.n_points * self.omega_step)

    @property
    def time_start(self) -> float:
        return -0.5 * self.n_points * self.time_step

    @cached_property
    def times(self) -> np.ndarray:
        return _read_only(self.time_start + self.time_step * np.arange(self.n_points))

    @cached_property
    def _transform_factors(self) -> tuple:
        """Both transforms' per-grid factors, built once per instance: (signs,
        forward post-factor, inverse pre-factor, inverse post-factor)."""
        signs = np.where(np.arange(self.n_points) % 2 == 0, 1.0, -1.0)  # exp(-i j domega t0)
        root = math.sqrt(2.0 * math.pi)
        fwd_post = (self.omega_step / root) * np.exp(-1j * self.omega_start * self.times)
        inv_pre = np.exp(1j * self.omega_start * self.times)
        inv_post = (self.time_step / root) * signs
        return tuple(_read_only(a) for a in (signs, fwd_post, inv_pre, inv_post))

    def __eq__(self, other):
        # same physical grid within a bin-position error of ~1e-5 bins;
        # serialization round trips must compare equal
        if not isinstance(other, SpectralGrid):
            return NotImplemented
        return (
            self.n_points == other.n_points
            and math.isclose(self.omega_start, other.omega_start, rel_tol=1e-9, abs_tol=0)
            and math.isclose(self.omega_step, other.omega_step, rel_tol=1e-9, abs_tol=0)
        )


def make_grid(center: float, span: float, n_points: int) -> SpectralGrid:
    """Grid of n_points covering [center - span/2, center + span/2)."""
    if not span > 0:
        raise ValueError(f"span must be positive, got {span}")
    return SpectralGrid(center - 0.5 * span, span / n_points, n_points)


NORM_TOL = 1e-9


@dataclass(frozen=True)
class SpectralMode:
    """Complex spectral amplitude on a grid, normalized so sum |a|^2 domega = 1."""

    grid: SpectralGrid
    amplitude: np.ndarray

    def __post_init__(self):
        amp = freeze_field(self, "amplitude", np.complex128, self.grid.n_points)
        # a sum of squares is finite only if every value is and none overflows
        nrm = float(np.vdot(amp, amp).real * self.grid.omega_step)
        if not math.isfinite(nrm):
            raise ValueError("amplitude has non-finite values or an overflowing norm")
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"mode norm {nrm!r} deviates from 1 by more than {NORM_TOL}")

    def intensity(self) -> np.ndarray:
        """Spectral intensity |psi~(omega)|^2."""
        return np.abs(self.amplitude) ** 2

    def phase(self) -> np.ndarray:
        """Wrapped spectral phase Arg psi~(omega)."""
        return np.angle(self.amplitude)


def polar_mode(grid: SpectralGrid, magnitude: np.ndarray, phase: np.ndarray) -> SpectralMode:
    """The mode magnitude * exp(i*phase), which must be non-negative and unit-norm.

    cos and sin are taken only where the magnitude is nonzero; the empty
    bins, whose phases may reach hundreds of rad, stay +0.0.
    """
    if np.any(magnitude < 0):
        raise ValueError("amplitude magnitude must be non-negative")
    amplitude = np.zeros(grid.n_points, dtype=np.complex128)
    lit = magnitude > 0
    r, angle = magnitude[lit], phase[lit]
    amplitude.real[lit] = r * np.cos(angle)
    amplitude.imag[lit] = r * np.sin(angle)
    return SpectralMode(grid, amplitude)


def normalize(grid: SpectralGrid, values: np.ndarray) -> SpectralMode:
    """Build a unit-norm SpectralMode from raw complex samples.

    The global phase is rotated so Arg psi~ = 0 at the grid center (or at
    the amplitude maximum if the center bin is empty); real non-negative
    samples keep every bit.
    """
    vals = np.asarray(values, dtype=np.complex128).copy()
    nrm2 = float(np.sum(np.abs(vals) ** 2) * grid.omega_step)
    if nrm2 <= 0 or not np.isfinite(nrm2):
        raise ValueError("cannot normalize a zero or non-finite amplitude")
    vals /= math.sqrt(nrm2)
    idx = grid.n_points // 2
    if abs(vals[idx]) == 0.0:
        idx = int(np.argmax(np.abs(vals)))
    vals *= np.exp(-1j * np.angle(vals[idx]))
    return SpectralMode(grid, vals)


# ---- transforms ------------------------------------------------------------

def spectral_to_temporal_array(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Raw omega -> t transform of one array under the package convention.

    psi(t_k) = (domega/sqrt(2*pi)) sum_j values_j exp(-i*omega_j*t_k) with
    t_k the dual grid of `grid`.  Unitary together with its inverse.  Each
    transform allocates one complex array and applies the FFT and its
    factors in place there.  Every product keeps the operand order of the
    out-of-place formula post * fft(values * signs), and complex
    multiplication is not bitwise commutative, so the bits are that
    formula's.
    """
    signs, post, _, _ = grid._transform_factors
    ft = np.multiply(values, signs, dtype=np.complex128)
    np.fft.fft(ft, out=ft)
    return np.multiply(post, ft, out=ft)


def temporal_to_spectral_array(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Inverse of spectral_to_temporal_array."""
    _, _, pre, post = grid._transform_factors
    ift = np.multiply(values, pre, dtype=np.complex128)
    np.fft.ifft(ift, out=ift)
    ift *= grid.n_points
    return np.multiply(post, ift, out=ift)


def mode_overlap(a: SpectralMode, b: SpectralMode) -> float:
    """|<a|b>|^2 on a shared grid; 1 for identical modes, 0 for orthogonal."""
    if a.grid != b.grid:
        raise ValueError("modes live on different grids")
    inner = np.vdot(a.amplitude, b.amplitude) * a.grid.omega_step
    return min(float(np.abs(inner) ** 2), 1.0)


# ---- chronocyclic Wigner distribution --------------------------------------

def _lattice_index(values, origin: float, step: float, lo: int, hi: int, name: str):
    """Index k in [lo, hi] of each value origin + k*step, to 1e-6 of a step, else ValueError."""
    if values.size == 0:
        raise ValueError(f"{name} must hold at least one value")
    x = (values - origin) / step
    k = np.rint(x)
    if not np.all(np.abs(x - k) <= 1e-6):
        raise ValueError(f"{name} values must lie on the lattice {origin!r} + k*{step!r}")
    if k.min() < lo or k.max() > hi:
        span = f"{origin + lo * step:.6g}..{origin + hi * step:.6g}"
        raise ValueError(f"{name} must stay within {span} for this grid")
    return k.astype(np.intp)


def wigner(mode: SpectralMode, t_axis: np.ndarray, omega_axis: np.ndarray) -> np.ndarray:
    """Chronocyclic Wigner distribution on lattice axes: the real values,
    shape (len(t_axis), len(omega_axis)).

    W(t, omega) = (1/2pi) Int psi~*(omega + x/2) psi~(omega - x/2) e^{i x t} dx
    at the native resolution x = 2*m*domega.  Each omega_axis value must be a
    grid node j and each t_axis value a half-step point t = p*dt/2 with
    |t| <= pi/(2*domega), the half period in t, to 1e-6 of a step, else
    ValueError.  Then W = (domega/pi) sum_m conj(a[j+m]) a[j-m] e^{2 pi i m p/N}
    with a = 0 off the grid.  Every p is a multiple of N/L, L = N/gcd(N, all
    p mod N), so the phase factor repeats every L lags: the lag products are
    summed block by block onto L columns, and one L-point inverse FFT gives
    every t.  Rows outside the mode's nonzero support are left zero.  Cost
    O(len(omega_axis)*N) time and O(N + len(omega_axis)*L) memory; axes
    without a common stride get L = N.
    """
    grid = mode.grid
    n = grid.n_points
    t_axis = np.asarray(t_axis, dtype=float)
    omega_axis = np.asarray(omega_axis, dtype=float)
    if t_axis.ndim != 1 or omega_axis.ndim != 1:
        raise ValueError("axes must be one-dimensional")
    j = _lattice_index(omega_axis, grid.omega_start, grid.omega_step, 0, n - 1, "omega_axis")
    p = _lattice_index(t_axis, 0.0, 0.5 * grid.time_step, -n // 2, n // 2, "t_axis") % n
    stride = math.gcd(n, *p.tolist())
    period = n // stride

    # lag m sits at column c = m + n/2 (the term |m| = n/2 is zero, as j+m or
    # j-m is off the grid); columns c0..c0+L-1 of row j are conj(a[j+m]) from
    # window j + c0 of the conjugate times a[j-m] from window n-1-j + c0 of
    # the reversed copy, and they add onto columns c mod L
    padded = np.zeros(2 * n, dtype=np.complex128)
    padded[n // 2 : n // 2 + n] = mode.amplitude
    ahead = sliding_window_view(np.conj(padded), period)
    behind = sliding_window_view(padded[::-1], period)
    # a row outside the first..last nonzero amplitude bin is exactly zero: each
    # lag product there has a factor off that support, so only the rows inside
    # are summed.  So is a lag |m| beyond half the support's width, in every
    # row, so only the blocks of columns that reach a lag within it are
    # summed.  The sums start at +0.0 and never become -0.0, so adding a
    # skipped block's +-0.0 would change no bit.
    support = np.flatnonzero(mode.amplitude)
    rows = np.flatnonzero((j >= support[0]) & (j <= support[-1]))
    jin = j[rows]
    reach = (support[-1] - support[0]) // 2
    folded = np.zeros((len(j), period), dtype=np.complex128)
    inside = folded if len(rows) == len(j) else np.zeros((len(rows), period), dtype=np.complex128)
    for c0 in range((n // 2 - reach) // period * period, n // 2 + reach + 1, period):
        block = ahead[jin + c0]
        block *= behind[(n - 1 + c0) - jin]
        inside += block
    folded[rows] = inside
    # e^{2 pi i m p/n} = (-1)^p e^{2 pi i c p/n}, and c p/n = (c mod L)(p/stride)/L mod 1
    w = np.fft.ifft(folded, axis=1, out=folded)[:, p // stride]
    w *= np.where(p % 2 == 0, 1.0, -1.0) * (period * grid.omega_step / math.pi)
    peak = np.max(np.abs(w))
    if peak > 0:
        resid = np.max(np.abs(w.imag)) / peak
        if resid > 1e-9:
            raise AssertionError(f"Wigner imaginary residue {resid:.2e} exceeds 1e-9")
    return np.ascontiguousarray(w.real.T)


# ---- writers -------------------------------------------------------------------

def write_json(data: dict, path) -> None:
    """Write a JSON object with one sorted top-level key per line.

    Each value is encoded by json.dumps without indent so CPython's C
    encoder runs; any indent forces the pure-Python one, which is several
    times slower on long float arrays.  Floats keep float.__repr__, so
    they round-trip exactly.
    """
    lines = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(data[key], sort_keys=True)}" for key in sorted(data)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + lines + "\n}\n")


def read_json(path):
    """Parse a JSON file; bytes that are not UTF-8 JSON raise DataFormatError.

    A leading UTF-8 byte-order mark is skipped.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None


WRITE_BLOCK_ROWS = 4096  # rows joined into one string per write


def column_text(column) -> list:
    """CSV cell text of one column: repr of each float or int, 0/1 for a bool.

    An array becomes Python scalars through one tolist() call, then repr
    per value, the float.__repr__ floor that round-trips exactly.  Any
    other sequence is taken to hold str already and passes as given.
    """
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype == bool:
        return list(map(("0", "1").__getitem__, column.tolist()))
    return list(map(repr, column.tolist()))


def write_columns(path, header: str, *columns) -> None:
    """Write equal-length columns as comma-separated text rows under `header`.

    The table goes out in blocks of at most WRITE_BLOCK_ROWS rows.  Each
    column's slice for the block becomes cell text (`column_text`), so a
    column that is already text, such as `SpectralGrid.omega_text`, is
    not formatted again; the cells are laid into one list by a strided
    slice assignment per column, between preset "," and "\n" separators,
    and written with one "".join: no per-row format string, and memory
    bounded by the block rather than the table.
    """
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    k = 2 * len(columns)  # list slots per row: each cell and the separator after it
    row = [","] * k
    row[-1] = "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, n, WRITE_BLOCK_ROWS):
            stop = min(start + WRITE_BLOCK_ROWS, n)
            cells = row * (stop - start)
            for i, column in enumerate(columns):
                cells[2 * i :: k] = column_text(column[start:stop])
            fh.write("".join(cells))


# ---- mode serialization -----------------------------------------------------

def grid_to_dict(grid: SpectralGrid) -> dict:
    return {
        "omega_start": grid.omega_start,
        "omega_step": grid.omega_step,
        "n_points": grid.n_points,
    }


def _array_from_json(name: str, values, dtype, n_points: int) -> np.ndarray:
    """n_points finite numbers, never bools, for float; JSON booleans for bool."""
    wrong = set(map(type, values)) - ({bool} if dtype is bool else {int, float})
    if wrong:
        raise TypeError(f"{name} holds {', '.join(sorted(k.__name__ for k in wrong))} values")
    arr = np.array(values, dtype=dtype)
    if arr.shape != (n_points,) or not np.isfinite(arr).all():
        raise ValueError(f"{name} needs {n_points} finite values, got shape {arr.shape}")
    return arr


def grid_arrays_from_dict(data: dict, what: str, dtypes: dict) -> tuple:
    """The grid (inverse of grid_to_dict) and the per-bin arrays of a record dict.

    Returns (grid, {name: array}) for the {name: dtype} in `dtypes`, float
    or bool.  Values take the config number rule: finite numbers, never
    bools, in the grid and in float arrays, an integral n_points, and JSON
    booleans in bool arrays.  A missing key, a wrong type or an array whose
    length is not the grid's raises DataFormatError naming `what`.
    """
    try:
        start, step, n = (data["grid"][k] for k in ("omega_start", "omega_step", "n_points"))
        if not (is_number(start) and is_number(step) and is_integral(n)):
            raise TypeError(f"grid needs numbers and an integral n_points, got {data['grid']!r}")
        grid = SpectralGrid(float(start), float(step), int(n))
        arrays = {k: _array_from_json(k, data[k], dt, grid.n_points) for k, dt in dtypes.items()}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"malformed {what}: {exc}") from exc
    return grid, arrays


def save_mode(mode: SpectralMode, path) -> SpectralMode:
    """Write the mode as (|a|, arg a) and return the mode the file holds: the
    polar_mode of those arrays, bit for bit what load_mode(path) returns."""
    magnitude, phase = np.abs(mode.amplitude), np.angle(mode.amplitude)
    write_json({"grid": grid_to_dict(mode.grid), "amplitude_abs": magnitude.tolist(),
                "phase_rad": phase.tolist()}, path)
    return polar_mode(mode.grid, magnitude, phase)


def load_mode(path) -> SpectralMode:
    """Read a mode file: truth_mode.json, or a result.json, which holds the same keys.

    A malformed record, or an amplitude that is not unit-norm, raises
    DataFormatError naming the file.
    """
    grid, arr = grid_arrays_from_dict(
        read_json(path), f"mode record {path}", {"amplitude_abs": float, "phase_rad": float}
    )
    try:
        return polar_mode(grid, arr["amplitude_abs"], arr["phase_rad"])
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _keep_freed_arrays() -> bool:
    """On glibc, keep freed work arrays in the heap for the next op; return whether it did."""
    env = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
           "MALLOC_MMAP_MAX_")  # glibc's own malloc variables take precedence
    if any(k in os.environ for k in env) or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr, no glibc or no mallopt
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # By default glibc unmaps or trims away each freed array of 128 KiB or more and the next op
    # faults it in again.  M_MMAP_THRESHOLD (-3) 32 MiB and M_TRIM_THRESHOLD (-1) 128 MiB are
    # set together, since setting either alone pins the other's dynamic value at 128 KiB.
    return bool(glibc and mallopt(-3, 32 << 20) and mallopt(-1, 128 << 20))


_keep_freed_arrays()
