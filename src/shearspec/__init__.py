"""Spectral-shearing interferometry: simulation and phase reconstruction."""

from .core import (
    C_NM_PER_FS,
    SpectralGrid,
    SpectralMode,
    load_mode,
    make_grid,
    mode_overlap,
    normalize,
    save_mode,
    shear_nm_to_omega,
    wavelength_to_omega,
    wigner,
)
from .synthesis import PulseSpec, synthesize
from .interferometer import (
    Interferogram,
    ShearConfig,
    apply_shear,
    detect_counts,
    ideal_interferogram,
    load_interferogram_csv,
    save_interferogram_csv,
)
from .reconstruction import (
    DelayCalibration,
    FtsiSettings,
    PhaseFit,
    ReconstructionResult,
    calibrate_delay,
    extract_phase_difference,
    fit_phase_polynomial,
    integrate_phase,
    load_result,
    reconstruct,
    save_result,
)
from .analysis import (
    orthogonality_report,
    save_wigner_csv,
    temporal_profile,
    transform_limit_ratio,
    v_phase_slope,
)
from .config import (
    PRESETS,
    DetectionSpec,
    GridSpec,
    OutputSpec,
    RunConfig,
    build_grid,
    config_from_dict,
    config_to_dict,
    derive_seed,
    ftsi_settings,
    load_config,
    preset,
    shear_config,
)
from . import errors

__version__ = "0.1.0"
