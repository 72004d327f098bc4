"""Statistical references for tests: the Cramér–Rao bound of a shearing record,
and the seed sweep that a scatter is measured over."""

import math

import numpy as np

import shearspec as ss


def fisher_bound(ideal, counts, shear, mode):
    """Cramér–Rao sd of (phi1, phi2, phi3) [fs, fs^2, fs^3] for an ideal instrument.

    `ideal` is mode's noise-free record at `shear`, detected with `counts`
    expected photons in all.  Given n_i photons in bin i, the plus output
    draws Binomial(n_i, (1 + V cos D) / 2), with V cos D = (plus - minus) /
    (plus + minus) and V = 2ab / (a^2 + b^2), a = |psi~(omega)|,
    b = |psi~(omega + W)|; mode supplies a and b, which the record alone
    does not separate.  Per bin the information in D is
    n_i (V^2 - (V cos D)^2) / (1 - (V cos D)^2), and D moves with phi_k
    along (x^k - (x + W)^k) / k!, x = omega - omega0, so the Fisher matrix
    sums those column products; amplitude and shear are taken as known.
    """
    grid = ideal.grid
    total = ideal.plus + ideal.minus
    use = total > 0
    n = counts * total[use] / total.sum()
    v_cos = (ideal.plus - ideal.minus)[use] / total[use]
    a = np.abs(mode.amplitude[use])
    b = np.abs(ss.apply_shear(mode, -shear).amplitude[use])
    v = 2.0 * a * b / (a**2 + b**2)
    info = n * (v**2 - v_cos**2) / (1.0 - v_cos**2)
    x = grid.omegas[use] - grid.omega_center
    design = np.array([(x**k - (x + shear) ** k) / math.factorial(k) for k in (1, 2, 3)])
    return np.sqrt(np.diag(np.linalg.inv((design * info) @ design.T)))


def sweep(preset, counts, seeds, fn):
    """fn(result, truth) for each seed's reconstruction of a preset's record.

    Seed s draws the record `detect_counts(ideal, counts, derive_seed(s,
    "counts", 0))` from the preset's ideal record, and the preset's shear,
    delay and settings reconstruct it; truth is the preset's synthesized
    mode.  Returns the values as an array, one row per seed.
    """
    cfg = ss.preset(preset)
    sc, settings = ss.shear_config(cfg), ss.ftsi_settings(cfg)
    truth = ss.synthesize(cfg.pulse, ss.build_grid(cfg))
    ideal = ss.ideal_interferogram(truth, sc)
    return np.array([
        fn(ss.reconstruct(ss.detect_counts(ideal, counts, ss.derive_seed(s, "counts", 0)), sc,
                          settings), truth)
        for s in seeds
    ])
