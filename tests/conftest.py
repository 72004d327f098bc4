"""Shared fixtures: the 830 nm / 8 nm test pulse family used throughout."""

import math

import numpy as np
import pytest

import shearspec as ss

OMEGA0 = ss.wavelength_to_omega(830.0)
FWHM_W = ss.shear_nm_to_omega(8.0, 830.0)
SHEAR = ss.shear_nm_to_omega(0.58, 830.0)
TAU = 10000.0


@pytest.fixture(scope="session")
def grid():
    return ss.make_grid(OMEGA0, 10.0 * FWHM_W, 4096)


@pytest.fixture(scope="session")
def quad_pulse():
    return ss.PulseSpec(830.0, 8.0, "polynomial", (0.0, 8.7e4, 5.0e5))


@pytest.fixture(scope="session")
def quad_mode(grid, quad_pulse):
    return ss.synthesize(quad_pulse, grid)


@pytest.fixture(scope="session")
def shear_cfg():
    return ss.ShearConfig(shear=SHEAR, delay=TAU)


@pytest.fixture(scope="session")
def quad_record(quad_mode, shear_cfg):
    return ss.ideal_interferogram(quad_mode, shear_cfg)


@pytest.fixture(scope="session")
def settings():
    return ss.FtsiSettings()


def gaussian_weights(g):
    sigma = FWHM_W / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return np.exp(-((g.omegas - OMEGA0) ** 2) / (2.0 * sigma**2))
