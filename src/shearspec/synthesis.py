"""Analytic test pulses: Gaussian envelope with parametric spectral phase."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    SpectralGrid,
    SpectralMode,
    normalize,
    shear_nm_to_omega,
    wavelength_to_omega,
)

PHASE_KINDS = ("polynomial", "v_lambda", "tabulated")

# intensity FWHM = sqrt(8*ln2) * sigma for a Gaussian
_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class PulseSpec:
    """Parametric description of a test pulse.

    center_wavelength / fwhm_wavelength are in nm (intensity FWHM).
    Exactly one phase parametrization is active:

    - polynomial: poly_coeffs = (phi1 [fs], phi2 [fs^2], phi3 [fs^3], ...),
      phase = sum_n phi_n (omega-omega0)^n / n!
    - v_lambda: phase = v_slope * |omega - omega0|, v_slope in fs;
      positive slope is a V, negative a Lambda
    - tabulated: phase (and optionally amplitude) sampled on table_omega,
      linearly interpolated onto the grid

    The other kinds' fields must carry nothing: all-zero poly_coeffs,
    v_slope 0, empty tables.
    """

    center_wavelength: float
    fwhm_wavelength: float
    phase_kind: str = "polynomial"
    poly_coeffs: tuple = (0.0,)
    v_slope: float = 0.0
    table_omega: tuple = field(default=())
    table_phase: tuple = field(default=())
    table_amplitude: tuple = field(default=())

    def __post_init__(self):
        if not self.center_wavelength > 0:
            raise ValueError("center_wavelength must be positive")
        if not self.fwhm_wavelength > 0:
            raise ValueError("fwhm_wavelength must be positive")
        if self.phase_kind not in PHASE_KINDS:
            raise ValueError(f"phase_kind must be one of {PHASE_KINDS}, got {self.phase_kind!r}")
        if self.phase_kind == "tabulated":
            if len(self.table_omega) < 2:
                raise ValueError("tabulated phase needs at least two table points")
            if len(self.table_phase) != len(self.table_omega):
                raise ValueError("table_phase length must match table_omega")
            if self.table_amplitude and len(self.table_amplitude) != len(self.table_omega):
                raise ValueError("table_amplitude length must match table_omega")
            if self.table_amplitude and not (min(self.table_amplitude) >= 0
                                             and max(self.table_amplitude) > 0):
                raise ValueError("table_amplitude must be non-negative and not all zero")
        # synthesize reads only the active kind's fields
        carried = {("polynomial", "poly_coeffs"): any(self.poly_coeffs),
                   ("v_lambda", "v_slope"): self.v_slope != 0,
                   **{("tabulated", name): len(getattr(self, name)) > 0
                      for name in ("table_omega", "table_phase", "table_amplitude")}}
        for (kind, name), nonempty in carried.items():
            if nonempty and kind != self.phase_kind:
                raise ValueError(f"{name} is ignored by phase_kind {self.phase_kind!r}: "
                                 "leave it at its default")

    @property
    def omega_center(self) -> float:
        return wavelength_to_omega(self.center_wavelength)

    @property
    def fwhm_omega(self) -> float:
        return shear_nm_to_omega(self.fwhm_wavelength, self.center_wavelength)


def _table_amplitude(spec: PulseSpec, grid: SpectralGrid) -> np.ndarray:
    """The tabulated amplitude interpolated onto the grid, zero outside the table."""
    return np.interp(grid.omegas, np.asarray(spec.table_omega), np.asarray(spec.table_amplitude),
                     left=0.0, right=0.0)


def check_coverage(spec: PulseSpec, grid: SpectralGrid) -> None:
    """Raise ValueError unless the grid spans +-2 FWHM around the pulse carrier
    and a tabulated amplitude is positive somewhere on it."""
    omega0, fwhm, omegas = spec.omega_center, spec.fwhm_omega, grid.omegas
    if omega0 - 2.0 * fwhm < omegas[0] or omega0 + 2.0 * fwhm > omegas[-1]:
        raise ValueError(
            "grid does not cover the pulse: need at least +-2 FWHM around the carrier"
        )
    if spec.phase_kind == "tabulated" and spec.table_amplitude:
        if not np.any(_table_amplitude(spec, grid) > 0):
            raise ValueError("table_amplitude is zero everywhere on the grid: "
                             "table_omega must overlap the grid")


def synthesize(spec: PulseSpec, grid: SpectralGrid) -> SpectralMode:
    """Build the normalized mode sqrt(S(omega)) * exp(i*phi(omega)) on grid.

    The spectral intensity is Gaussian with the requested intensity FWHM
    unless a tabulated amplitude is supplied.  The grid must span at least
    4x the FWHM around the pulse carrier.
    """
    check_coverage(spec, grid)
    fwhm = spec.fwhm_omega
    omegas = grid.omegas
    detuning = omegas - spec.omega_center

    if spec.phase_kind == "tabulated" and spec.table_amplitude:
        amp = _table_amplitude(spec, grid)
    else:
        sigma = fwhm / _FWHM_PER_SIGMA
        amp = np.exp(-(detuning**2) / (4.0 * sigma**2))  # amplitude of Gaussian intensity

    if spec.phase_kind == "polynomial":
        phase = np.zeros_like(detuning)
        for n, coeff in enumerate(spec.poly_coeffs, start=1):
            phase += coeff * detuning**n / math.factorial(n)
    elif spec.phase_kind == "v_lambda":
        phase = spec.v_slope * np.abs(detuning)
    else:
        phase = np.interp(omegas, np.asarray(spec.table_omega), np.asarray(spec.table_phase))

    return normalize(grid, amp * np.exp(1j * phase))
