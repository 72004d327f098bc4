"""Self-referenced reconstruction from a two-output sheared interferogram.

Pipeline: Fourier-transform the difference record along omega, isolate the
sideband near t = +tau, filter, transform back, strip the carrier
exp(i*omega*tau), unwrap.  That yields the shear phase difference

    dphi(omega) = phi(omega) - phi(omega + W),

which integrates to phi(omega) by concatenation: exact summation on
interleaved ladders of rungs W apart, whose offsets join them smoothly.
The recovered spectrum is the fringe-free sum of both outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    SpectralGrid,
    SpectralMode,
    freeze_field,
    grid_arrays_from_dict,
    grid_to_dict,
    is_number,
    polar_mode,
    read_json,
    spectral_to_temporal_array,
    temporal_to_spectral_array,
    write_json,
)
from .errors import ConfigError, DataFormatError, ReconstructionError
from .interferometer import Interferogram, ShearConfig, check_shear

LADDERS = 4  # interleaved concatenation ladders in integrate_phase

MIN_SIDEBAND_SNR = 3.0

# the sideband window exp(-ln2 * ((t-c)/width)^(2*FILTER_ORDER)), a super-Gaussian
FILTER_ORDER = 6
# support half width / width: beyond it the window passes less than 1e-3
_SUPPORT_PER_WIDTH = (math.log(1000.0) / math.log(2.0)) ** (1.0 / (2.0 * FILTER_ORDER))
# |x| below which the window is evaluated: past ln2 * |x|^(2k) = 746 exp underflows
# to exactly 0.0, so evaluating below 760 only leaves every value unchanged
_WINDOW_REACH = (760.0 / math.log(2.0)) ** (1.0 / (2 * FILTER_ORDER))


@dataclass(frozen=True)
class FtsiSettings:
    """Fourier-transform fringe analysis settings; none depends on the delay.

    The sideband filter is re-centred on the detected peak inside the search
    window [tau - width, tau + width] around the delay tau the record is
    analysed at.  filter_width (fs) is the half width at half maximum of the
    order-FILTER_ORDER super-Gaussian window.  None takes width(tau): the
    widest window whose 1e-3 support half width is 2*tau/3, so it ends tau/3
    short of t = 0, the edge of the DC / mirror-sideband region (~0.55*tau,
    wide enough for a kink's sideband tails).  amplitude_floor masks bins
    whose summed-output intensity falls below floor * max before unwrapping.
    """

    filter_width: float | None = None
    amplitude_floor: float = 0.003

    def __post_init__(self):
        if self.filter_width is not None and not 0 < self.filter_width < math.inf:
            raise ValueError("filter_width must be positive and finite")
        if not 0 < self.amplitude_floor < 1:
            raise ValueError("amplitude_floor must lie in (0, 1)")

    def width(self, tau: float) -> float:
        """The window's half width for a record analysed at delay tau."""
        if self.filter_width is not None:
            return self.filter_width
        return (2.0 * tau / 3.0) / _SUPPORT_PER_WIDTH


@dataclass(frozen=True)
class DelayCalibration:
    tau_fs: float
    stderr_fs: float
    sideband_snr: float


@dataclass(frozen=True)
class PhaseFit:
    """Polynomial phase coefficients phi_n about the grid center, n >= 1.

    coefficients[n-1] multiplies (omega-omega0)^n / n!; units fs^n.
    Standard errors come from the weighted-least-squares covariance scaled
    by the residual variance.
    """

    coefficients: tuple
    stderrs: tuple

    def coefficient(self, order: int) -> float:
        if not 1 <= order <= len(self.coefficients):
            raise ValueError(f"no coefficient of order {order} in this fit")
        return self.coefficients[order - 1]

    def stderr(self, order: int) -> float:
        if not 1 <= order <= len(self.stderrs):
            raise ValueError(f"no coefficient of order {order} in this fit")
        return self.stderrs[order - 1]


def check_delay(settings: FtsiSettings, grid: SpectralGrid, tau: float) -> None:
    """ConfigError unless a record on `grid` can be analysed at delay tau.

    The fringe period 2*pi/tau needs at least 4 samples, and the search
    window [tau - width, tau + width] must stay clear of t = 0 and hold a
    time bin, so a width below the time step passes if a bin falls inside.
    """
    if not tau > 0:
        raise ConfigError("tau must be positive")
    if 2.0 * math.pi / tau < 4.0 * grid.omega_step:
        raise ConfigError(
            f"fringes not resolvable at tau = {tau:g} fs: fewer than 4 samples per period 2*pi/tau"
        )
    width = settings.width(tau)
    if not width < tau:
        raise ConfigError(f"filter_width {width:g} fs must be below the delay {tau:g} fs")
    if not np.any(np.abs(grid.times - tau) <= width):
        raise ConfigError(
            f"filter_width {width:g} fs leaves no time bin in the search window around "
            f"tau = {tau:g} fs (time step {grid.time_step:g} fs)"
        )


class _Sideband(NamedTuple):
    """The sideband stage's record: the filtered +tau sideband and its numbers."""

    z: np.ndarray  # filtered sideband Z(omega) on the whole grid
    valid: np.ndarray  # bins whose summed output reaches amplitude_floor * max
    spectrum: np.ndarray  # summed output plus + minus, normalized to unit integral
    tau: float  # the delay (fs) the search window is centred on: given, or located
    t_peak: float  # detected sideband time (fs), the window's centre
    snr: float  # peak |F| over the noise floor
    edge: float  # |F| at the bin nearest t_peak - width, the window's inner half maximum
    visibility: float  # median of 2|Z| / (plus + minus) over the valid bins


def _sideband(interf: Interferogram, settings: FtsiSettings, tau: float | None) -> _Sideband:
    """The sideband stage, the one reader of the record: filter its +tau sideband.

    The record must carry intensity, and at least 8 bins of its summed
    output plus + minus must reach amplitude_floor * max: the valid bins,
    on which the sideband is read.  spectrum is plus + minus at unit
    integral; it estimates [S(omega) + S(omega+W)]/2, a -W/2 centroid bias
    that reconstruct() corrects.  f is the transform of plus - minus; if
    tau is None, the search is centred on the first maximum of |f| over
    4 time steps < t <= pi / (2 * omega_step), the record's own strongest
    sideband among the delays check_delay accepts.  check_delay puts the
    search window |t - tau| <= width at t > 0 and a bin inside it.  The
    record is real, so |f| is even in t and the noise floor is the median of
    |f| over the bins t >= 0 that lie 2*width or more from both t = 0 and
    the peak: at least one bin, and a positive median.
    """
    total = float(np.sum(interf.plus) + np.sum(interf.minus))
    if total <= 0:
        raise ReconstructionError("record carries no intensity")
    summed = interf.plus + interf.minus
    valid = summed >= settings.amplitude_floor * float(np.max(summed))
    if np.count_nonzero(valid) < 8:
        raise ReconstructionError("fewer than 8 bins above the amplitude floor")
    grid = interf.grid
    spectrum = summed / (total * grid.omega_step)
    f = spectral_to_temporal_array(interf.plus - interf.minus, grid)
    t = grid.times
    half = grid.n_points // 2  # t[half] = 0
    mag = np.abs(f[half:])
    pos = t[half:]
    if tau is None:
        start = int(np.searchsorted(pos, 4.0 * grid.time_step, side="right"))
        stop = start + int(np.count_nonzero(2.0 * math.pi / pos[start:] >= 4.0 * grid.omega_step))
        if stop == start:
            raise ReconstructionError("grid too small to locate a sideband")
        i = start + int(np.argmax(mag[start:stop]))
        if mag[i] <= 0:
            raise ReconstructionError("record shows no positive-time sideband")
        tau = float(pos[i])
    check_delay(settings, grid, tau)
    w = settings.width(tau)
    search = np.abs(pos - tau) <= w
    i_pk = int(np.flatnonzero(search)[np.argmax(mag[search])])
    t_pk = float(pos[i_pk])
    peak = float(mag[i_pk])

    if peak <= 0.0:
        raise ReconstructionError("record shows no sideband energy in the filter window")
    off = (pos >= 2.0 * w) & (np.abs(pos - t_pk) >= 2.0 * w)
    floor = float(np.median(mag[off], overwrite_input=True)) if off.any() else 0.0
    if not floor > 0.0:
        raise ReconstructionError(
            f"no noise floor: |F| has no positive median over the bins 2*width = {2.0 * w:.0f} fs "
            f"or more from t = 0 and from the sideband peak at {t_pk:.0f} fs; use a shorter "
            "delay or more n_points"
        )
    snr = peak / floor
    if snr < MIN_SIDEBAND_SNR:
        raise ReconstructionError(
            f"sideband SNR {snr:.2f} below {MIN_SIDEBAND_SNR}: fringes not usable"
        )

    support = w * _SUPPORT_PER_WIDTH
    if t_pk - support <= 0.0:
        raise ReconstructionError(
            f"filter support [{t_pk - support:.0f}, {t_pk + support:.0f}] fs reaches "
            "into the DC / mirror-sideband region"
        )
    edge = float(mag[np.argmin(np.abs(pos - (t_pk - w)))])
    if edge > 0.5 * peak:
        raise ReconstructionError(
            "sideband is not isolated: record magnitude at the filter edge exceeds "
            "half the sideband peak"
        )

    # f is filtered in place: zero off the window's support, windowed on it
    x = (t - t_pk) / w
    on = np.abs(x) < _WINDOW_REACH
    f[~on] = 0.0
    f[on] *= np.exp(-math.log(2.0) * x[on] ** (2 * FILTER_ORDER))
    z = temporal_to_spectral_array(f, grid)
    visibility = float(np.median(2.0 * np.abs(z[valid]) / summed[valid], overwrite_input=True))
    return _Sideband(z, valid, spectrum, tau, t_pk, snr, edge, visibility)


def extract_phase_difference(
    interf: Interferogram, settings: FtsiSettings, tau: float | None
) -> tuple[np.ndarray, _Sideband]:
    """Measure dphi(omega) = phi(omega) - phi(omega+W) from the fringe record.

    tau is the calibrated delay the sideband is searched for around, or
    None to search around the record's own strongest sideband; the filter
    itself locks onto the detected peak, and the carrier exp(i*omega*sb.tau)
    comes off.  Returns dphi on the full grid and the sideband stage's
    record sb, whose `valid` mask dphi was read on: dphi is interpolated
    linearly across the masked gaps and held at its end values in the wings.
    """
    grid = interf.grid
    sb = _sideband(interf, settings, tau)
    omegas = grid.omegas[sb.valid]
    # the carrier exp(i*omega*tau) comes off as a phase, and unwrapping over the
    # valid bins takes up the 2*pi jumps.  np.interp returns each valid bin's own
    # value, bridges the gaps linearly and extends the end values over the wings
    unwrapped = np.unwrap(np.angle(sb.z[sb.valid]) - omegas * sb.tau)
    dphi = np.interp(grid.omegas, omegas, unwrapped)
    # Unwrapping leaves a global 2*pi*k ambiguity in dphi, which the record
    # shares: shifting the pulse by 2*pi/shear in time changes nothing
    # measurable.  Pin the branch so dphi at the grid centre lies in
    # (-pi, pi], selecting the reconstruction nearest t = 0.
    center = dphi[grid.n_points // 2]
    dphi -= 2.0 * math.pi * np.round(center / (2.0 * math.pi))
    return dphi, sb


def calibrate_delay(
    interf: Interferogram, settings: FtsiSettings, tau: float | None
) -> DelayCalibration:
    """Fit the delay from a zero-shear record's sideband phase slope.

    A zero-shear record's sideband phase is omega*tau, so the carrier-free
    dphi of extract_phase_difference is omega * (tau - sb.tau) and a
    |Z|^2-weighted line fit over the valid bins gives tau and its standard
    error.  tau None searches around the record's strongest sideband.  |F|
    peaks at tau, within half a time step of the peak bin t_peak, so a fit
    more than a time step from t_peak (or NaN) is refused; every failure
    says that the calibration record is unusable.
    """
    try:
        dphi, sb = extract_phase_difference(interf, settings, tau)
    except ReconstructionError as exc:
        raise ReconstructionError(f"calibration record unusable: {exc}") from exc
    grid = interf.grid
    coef, err = masked_fit(dphi, np.abs(sb.z) ** 2, grid, sb.valid, lambda x: [x], 3, "the delay")
    fitted = sb.tau + float(coef[1])
    if not abs(fitted - sb.t_peak) <= grid.time_step:
        raise ReconstructionError(
            f"calibration record unusable: fitted delay {fitted:.1f} fs lies more than a time "
            f"step ({grid.time_step:.1f} fs) from the sideband peak at {sb.t_peak:.1f} fs"
        )
    return DelayCalibration(tau_fs=fitted, stderr_fs=float(err[1]), sideband_snr=sb.snr)


def masked_fit(values, weights, grid: SpectralGrid, mask, basis, min_bins: int, what: str):
    """WLS fit of `values` about the grid center; returns (coefficients, stderrs).

    values and weights are per-bin arrays on the grid, weights non-negative.
    Fits the bins with weight > 0 that the mask keeps, at least min_bins of
    them; basis(x) gives the k design columns at x = omega - omega0 but for
    the constant, which is implied and whose coefficient and error come
    first.  min_bins >= k + 2 leaves a residual degree of freedom.  The
    columns are centred on their weighted means, which takes the constant
    out of their normal equations: one k x k solve of their weighted Gram
    matrix G, scaled to a unit diagonal, gives their coefficients, and
    sigma^2 G^-1 their covariance, with sigma^2 the weighted residual
    variance, so the errors scale with the fit's actual scatter.  The
    constant's coefficient and error follow from the means.  Centring keeps
    the solve as accurate as an SVD of the design.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != (grid.n_points,) or weights.shape != (grid.n_points,):
        raise ValueError(f"cannot fit {what}: values/weights length does not match the grid")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    use = np.flatnonzero((weights > 0) & np.asarray(mask, dtype=bool))
    if use.size < min_bins:
        raise ValueError(f"not enough weighted bins to fit {what}")
    columns = basis(grid.omegas[use] - grid.omega_center)
    k = len(columns)
    rows = np.array([*columns, values[use]], dtype=float)  # centred in place
    w = weights[use]
    wsum = float(np.sum(w))
    means = rows @ w / wsum
    rows -= means[:, None]
    design, yc = rows[:k], rows[k]
    weighted = design * w
    gram = weighted @ design.T
    diag = np.diag(gram)
    scale = np.where(diag > 0, np.sqrt(diag), 1.0)
    inverse = np.linalg.pinv(gram / np.outer(scale, scale), hermitian=True)
    inverse /= np.outer(scale, scale)
    slopes = inverse @ (weighted @ yc)
    coef = np.concatenate([[means[k] - means[:k] @ slopes], slopes])
    resid = yc - slopes @ design
    sigma2 = float((resid * w) @ resid) / (use.size - k - 1)
    var = np.concatenate([[1.0 / wsum + means[:k] @ inverse @ means[:k]], np.diag(inverse)])
    return coef, np.sqrt(sigma2 * np.clip(var, 0.0, None))


def integrate_phase(
    dphi: np.ndarray, shear: float, grid: SpectralGrid, weights: np.ndarray
) -> np.ndarray:
    """Integrate dphi(omega) = phi(omega) - phi(omega+W) to phi(omega).

    Concatenation on LADDERS interleaved ladders W/LADDERS apart, each with
    rungs W apart, laid over the span of bins with weight > 0.  Each ladder
    is summed exactly, phi(x + W) = phi(x) - dphi(x), so it is exact at its
    rungs for any phase, a slope kink included.  The ladders' constant
    offsets minimize the weighted squared second difference of the merged
    lattice (one least-squares solve over LADDERS - 1 columns).  The grid is
    filled by linear interpolation, continued beyond the lattice with the
    edge slope -dphi/W, and anchored at phi(omega0) = 0.  phi is linear in
    dphi; time and memory are O(lattice nodes) plus the grid interpolation.
    """
    dphi = np.asarray(dphi, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if dphi.shape != (grid.n_points,) or weights.shape != (grid.n_points,):
        raise ValueError("dphi/weights length does not match the grid")
    if not abs(shear) >= 0.25 * grid.omega_step:  # zero too; keeps the lattice O(n_points)
        raise ConfigError(
            f"shear {shear:g} rad/fs is below a quarter bin: too small to integrate the phase"
        )
    try:  # the record's grid holds both sheared arms only below a quarter span
        check_shear(shear, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    used = np.flatnonzero(weights > 0)
    if used.size == 0:
        raise ValueError("integration needs at least one bin with weight > 0")
    omegas = grid.omegas
    first, last = omegas[used[0]], omegas[used[-1]]
    rungs = int(math.ceil((last - first) / abs(shear) + 0.25))  # the last node reaches `last`
    # nodes run from the span's edge in the direction of the shear: node j + LADDERS
    # is node j + W, so each ladder is a column of the (rungs, LADDERS) reshape
    start = first if shear > 0 else last
    nodes = start + (shear / LADDERS) * np.arange(rungs * LADDERS)
    dphi_nodes = np.interp(nodes, omegas, dphi)
    steps = -dphi_nodes.reshape(rungs, LADDERS)[:-1]  # phi(x + W) - phi(x) down each ladder
    summed = np.concatenate([np.zeros((1, LADDERS)), np.cumsum(steps, axis=0)]).ravel()

    # phi = summed + the offset of each node's ladder; ladder 0's offset is 0
    ladder = (np.arange(summed.size)[:, None] % LADDERS == np.arange(1, LADDERS)).astype(float)
    design = ladder[:-2] - 2.0 * ladder[1:-1] + ladder[2:]
    target = -(summed[:-2] - 2.0 * summed[1:-1] + summed[2:])
    sw = np.sqrt(np.interp(nodes[1:-1], omegas, weights))
    offsets, _, _, _ = np.linalg.lstsq(design * sw[:, None], target * sw, rcond=None)
    phi_nodes = summed + ladder @ offsets

    if shear < 0:
        nodes, phi_nodes, dphi_nodes = nodes[::-1], phi_nodes[::-1], dphi_nodes[::-1]
    # beyond the lattice, phi runs on at the edge slope -dphi/W to a node past the grid
    edges = nodes[[0, -1]] + np.array([-1.0, 1.0]) * (omegas[-1] - omegas[0] + abs(shear))
    at_edges = phi_nodes[[0, -1]] - dphi_nodes[[0, -1]] / shear * (edges - nodes[[0, -1]])
    phase = np.interp(omegas, np.concatenate([edges[:1], nodes, edges[1:]]),
                      np.concatenate([at_edges[:1], phi_nodes, at_edges[1:]]))
    return phase - phase[grid.n_points // 2]


# phi_n key of order n = index + 1; each has a "<key>_stderr" twin
_FIT_KEYS = ("phi1_fs", "phi2_fs2", "phi3_fs3")
FIT_ORDER = len(_FIT_KEYS)


def _taylor_basis(x: np.ndarray) -> list:
    """Columns x^n / n! for n = 1..FIT_ORDER, each the running product of the last."""
    columns = [x]
    for n in range(2, FIT_ORDER + 1):
        columns.append(columns[-1] * x / n)
    return columns


def fit_phase_polynomial(
    phase: np.ndarray, weights: np.ndarray, grid: SpectralGrid, mask: np.ndarray
) -> PhaseFit:
    """Weighted polynomial fit of phi about the grid center, on the bins of mask.

    Basis (omega-omega0)^n / n! for n = 1..FIT_ORDER, the orders result.json
    stores; a constant term is included in the fit and discarded (global
    phase is unphysical).  Weights are typically the recovered spectral
    intensity.
    """
    coef, err = masked_fit(
        phase, weights, grid, mask, _taylor_basis, FIT_ORDER + 2, "the phase polynomial"
    )
    return PhaseFit(tuple(float(c) for c in coef[1:]), tuple(float(e) for e in err[1:]))


# per-bin arrays of a result and their dtypes, the keys result_to_dict writes
_RESULT_ARRAYS = {
    "amplitude_abs": float, "phase_rad": float, "valid_mask": bool, "phase_difference": float
}


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed mode plus fit coefficients and diagnostics."""

    grid: SpectralGrid
    amplitude_abs: np.ndarray
    phase_rad: np.ndarray
    valid_mask: np.ndarray
    phase_difference: np.ndarray
    coefficients: PhaseFit
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, dtype in _RESULT_ARRAYS.items():
            freeze_field(self, name, dtype, self.grid.n_points)

    def mode(self) -> SpectralMode:
        return polar_mode(self.grid, self.amplitude_abs, self.phase_rad)


def reconstruct(
    interf: Interferogram, config: ShearConfig, settings: FtsiSettings
) -> ReconstructionResult:
    """Full reconstruction of the complex spectral mode from one record.

    config.delay is taken as the calibrated carrier delay; config.shear as
    the calibrated shear.  The recovered envelope's -W/2 centroid bias is
    corrected by resampling.
    """
    grid = interf.grid
    dphi, sb = extract_phase_difference(interf, settings, config.delay)
    spectrum = sb.spectrum
    phase = integrate_phase(dphi, config.shear, grid, spectrum * sb.valid)
    fit = fit_phase_polynomial(phase, spectrum, grid, sb.valid)

    # integrate_phase refused a zero shear, so there is a -W/2 bias to undo
    envelope = np.interp(grid.omegas - 0.5 * config.shear, grid.omegas, spectrum)
    amplitude = np.sqrt(envelope / (float(np.sum(envelope)) * grid.omega_step))

    diagnostics = {
        "visibility": sb.visibility,
        "sideband_snr": sb.snr,
        "sideband_time_fs": sb.t_peak,
        "tau_fs_used": float(config.delay),
        "shear_rad_per_fs_used": float(config.shear),
        "envelope_bias_rad_per_fs": -0.5 * config.shear,
        "envelope_bias_corrected": True,
    }
    return ReconstructionResult(
        grid=grid,
        amplitude_abs=amplitude,
        phase_rad=phase,
        valid_mask=sb.valid,
        phase_difference=dphi,
        coefficients=fit,
        diagnostics=diagnostics,
    )


# ---- result serialization ---------------------------------------------------

def fit_to_dict(fit: PhaseFit) -> dict:
    out = {}
    for order, key in enumerate(_FIT_KEYS, start=1):
        out[key] = fit.coefficient(order)
        out[key + "_stderr"] = fit.stderr(order)
    return out


def result_to_dict(result: ReconstructionResult) -> dict:
    return {
        "grid": grid_to_dict(result.grid),
        **{name: getattr(result, name).tolist() for name in _RESULT_ARRAYS},
        "coefficients": fit_to_dict(result.coefficients),
        "diagnostics": dict(result.diagnostics),
    }


def save_result(result: ReconstructionResult, path) -> None:
    write_json(result_to_dict(result), path)


def load_result(path) -> ReconstructionResult:
    """Inverse of save_result; DataFormatError naming the file if malformed.

    Coefficients must be finite numbers, diagnostics booleans or finite numbers.
    """
    what = f"reconstruction result {path}"
    data = read_json(path)
    grid, arrays = grid_arrays_from_dict(data, what, _RESULT_ARRAYS)
    try:
        coefficients, diagnostics = data["coefficients"], data["diagnostics"]
        if not isinstance(diagnostics, dict):
            raise TypeError("'diagnostics' must be an object")
        for key in (*_FIT_KEYS, *(key + "_stderr" for key in _FIT_KEYS)):
            if not is_number(coefficients[key]):
                raise TypeError(f"coefficients.{key} is not a finite number: {coefficients[key]!r}")
        for key, value in diagnostics.items():
            if not (isinstance(value, bool) or is_number(value)):
                raise TypeError(f"diagnostics.{key} is not a boolean or a finite number: {value!r}")
        fit = PhaseFit(tuple(float(coefficients[key]) for key in _FIT_KEYS),
                       tuple(float(coefficients[key + "_stderr"]) for key in _FIT_KEYS))
        return ReconstructionResult(grid, **arrays, coefficients=fit, diagnostics=dict(diagnostics))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed {what}: {exc}") from exc
