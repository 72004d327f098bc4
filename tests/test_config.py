"""Config parsing: every rejection path, the preset echo round trip,
and the type rules (null is the default, 0 is a value, integer fields take
integral numbers, bool is never a number)."""

import json

import pytest

import shearspec as ss
from shearspec.cli import main
from shearspec.errors import ConfigError


BASE = {
    "pulse": {
        "center_wavelength": 830.0,
        "fwhm_wavelength": 8.0,
        "phase_kind": "polynomial",
        "poly_coeffs": [0.0, 8.7e4, 5.0e5],
    },
    "interferometer": {"shear_nm": 0.58, "delay_fs": 10000.0, "seed": 7},
}


DROP = object()


def raw_config(**tweaks):
    """BASE with `block.key` (or top-level `key`) set; a value of DROP deletes it."""
    raw = json.loads(json.dumps(BASE))
    for key, value in tweaks.items():
        block, _, name = key.partition(".")
        target, name = (raw.setdefault(block, {}), name) if name else (raw, block)
        if value is DROP:
            target.pop(name, None)
        else:
            target[name] = value
    return raw


def _tabulated(amplitude, omega=(2.2, 2.35)):
    # BASE's poly_coeffs would be ignored by a tabulated pulse, so they go
    return {"pulse.phase_kind": "tabulated", "pulse.table_omega": list(omega),
            "pulse.table_phase": [0.0, 0.0], "pulse.table_amplitude": amplitude,
            "pulse.poly_coeffs": DROP}


REJECTED = {
    "unknown top-level key": {"colour": 1},
    "unknown pulse key": {"pulse.colour": 1},
    "unknown grid key": {"grid.colour": 1},
    "unknown interferometer key": {"interferometer.colour": 1},
    "unknown reconstruction key": {"reconstruction.colour": 1},
    "unknown outputs key": {"outputs.colour": 1},
    "missing pulse": {"pulse": DROP},
    "missing center_wavelength": {"pulse.center_wavelength": DROP},
    "string for a number": {"pulse.fwhm_wavelength": "8"},
    "true for a number": {"interferometer.delay_fs": True},
    "non-array poly_coeffs": {"pulse.poly_coeffs": 8.7e4},
    "seed of 2**64": {"interferometer.seed": 2**64},
    "negative seed": {"interferometer.seed": -1},
    "empty directory": {"outputs.directory": ""},
    "non-bool flag": {"outputs.wigner": "yes"},
    "non-bool top-level flag": {"compensate_phi2": 1},
    "block that is not an object": {"grid": [1, 2]},
    "unknown phase_kind": {"pulse.phase_kind": "cubic"},
    "two shear units": {"interferometer.shear_rad_per_fs": 0.001},
    "negative delay": {"interferometer.delay_fs": -5.0},
    "shear past the grid headroom": {"interferometer.shear_nm": 30},
    "counts past 2**53": {"interferometer.total_counts": 1e22},
    "bad reconstruction value": {"reconstruction.amplitude_floor": 1.5},
    "retired filter_center": {"reconstruction.filter_center": 10000.0},
    "filter_width at the delay": {"reconstruction.filter_width": 10000.0},
    "grid too coarse for the fringes": {"grid.n_points": 1024},
    "negative table_amplitude": _tabulated([1.0, -0.5]),
    "all-zero table_amplitude": _tabulated([0.0, 0.0]),
    "table off the grid": _tabulated([1.0, 1.0], omega=[1.0, 1.1]),
    "compensate_phi2 on a v_lambda pulse": {
        "compensate_phi2": True, "pulse.phase_kind": "v_lambda", "pulse.v_slope": 1050.0,
        "pulse.poly_coeffs": DROP,
    },
    "poly_coeffs on a v_lambda pulse": {"pulse.phase_kind": "v_lambda"},
    "v_slope on a polynomial pulse": {"pulse.v_slope": 1050.0},
    "table_amplitude on a polynomial pulse": {"pulse.table_amplitude": [1.0, 1.0]},
}


@pytest.mark.parametrize("tweaks", REJECTED.values(), ids=list(REJECTED))
def test_rejected(tweaks):
    with pytest.raises(ConfigError):
        ss.config_from_dict(raw_config(**tweaks))


def test_total_counts_may_reach_2_to_the_53():
    cfg = ss.config_from_dict(raw_config(**{"interferometer.total_counts": 2**53}))
    assert cfg.interferometer.total_counts == 2**53
    with pytest.raises(ConfigError, match=r"at most 2\*\*53"):
        ss.config_from_dict(raw_config(**{"interferometer.total_counts": 2**53 + 1}))


def test_messages():
    with pytest.raises(ConfigError, match="unknown key 'colour'"):
        ss.config_from_dict(raw_config(**{"grid.colour": 1}))
    with pytest.raises(ConfigError, match="missing required block 'pulse'"):
        ss.config_from_dict(raw_config(pulse=DROP))
    with pytest.raises(ConfigError, match="unknown preset 'nope'"):
        ss.preset("nope")


def test_top_level_must_be_an_object():
    with pytest.raises(ConfigError):
        ss.config_from_dict([BASE])


@pytest.mark.parametrize("name", sorted(ss.PRESETS))
def test_preset_echo_round_trip(name):
    cfg = ss.preset(name)
    assert ss.config_from_dict(ss.config_to_dict(cfg)) == cfg
    echo = json.loads(json.dumps(ss.config_to_dict(cfg)))
    assert ss.config_from_dict(echo) == cfg


def test_echo_lists_every_field():
    echo = ss.config_to_dict(ss.config_from_dict(raw_config()))
    assert set(echo) == {
        "pulse", "grid", "interferometer", "reconstruction", "outputs", "compensate_phi2"
    }
    assert echo["grid"] == {"center_nm": None, "span_factor": 10.0, "n_points": 4096}
    assert echo["outputs"]["directory"] == "out"
    assert list(echo["pulse"]["poly_coeffs"]) == [0.0, 8.7e4, 5.0e5]


def test_null_means_default():
    cfg = ss.config_from_dict(
        raw_config(**{"grid.span_factor": None, "grid.n_points": None,
                      "interferometer.delay_fs": None, "pulse.v_slope": None})
    )
    assert cfg.grid == ss.GridSpec()
    assert cfg.interferometer.delay_fs == 10000.0
    assert cfg.pulse.v_slope == 0.0


def test_integral_floats_are_integers():
    cfg = ss.config_from_dict(raw_config(**{"grid.n_points": 2048.0, "interferometer.seed": 9.0}))
    assert cfg.grid.n_points == 2048 and isinstance(cfg.grid.n_points, int)
    assert cfg.interferometer.seed == 9 and isinstance(cfg.interferometer.seed, int)


# ---- inputs that used to be silently misread --------------------------------

def test_zero_delay_is_a_value_not_the_default():
    # 0 used to fall back to 10000 fs; a zero delay cannot separate the sideband
    with pytest.raises(ConfigError, match="delay_fs"):
        ss.config_from_dict(raw_config(**{"interferometer.delay_fs": 0}))


def test_zero_span_factor_is_a_value_not_the_default():
    with pytest.raises(ConfigError):
        ss.config_from_dict(raw_config(**{"grid.span_factor": 0}))


@pytest.mark.parametrize(
    "tweaks", [{"grid.n_points": 4096.7}, {"interferometer.seed": 7.9}],
    ids=["n_points", "seed"],
)
def test_fractional_integers_rejected(tweaks):
    with pytest.raises(ConfigError):
        ss.config_from_dict(raw_config(**tweaks))


def test_string_bool_flag_rejected():
    with pytest.raises(ConfigError, match="noiseless"):
        ss.config_from_dict(raw_config(**{"interferometer.noiseless": "no"}))


def test_bool_filter_width_rejected():
    with pytest.raises(ConfigError, match="filter_width"):
        ss.config_from_dict(raw_config(**{"reconstruction.filter_width": True}))


@pytest.mark.parametrize(
    "tweaks",
    [{"pulse.center_wavelength": 10**400}, {"grid.center_nm": float("inf")},
     {"interferometer.shear_nm": float("nan")}],
    ids=["huge-int", "inf", "nan"],
)
def test_non_finite_numbers_rejected(tweaks):
    with pytest.raises(ConfigError, match="must be a number"):
        ss.config_from_dict(raw_config(**tweaks))


def test_reconstruction_overrides_are_typed():
    cfg = ss.config_from_dict(raw_config(**{"reconstruction.filter_width": 3000}))
    assert cfg.reconstruction == ss.FtsiSettings(filter_width=3000.0)
    assert type(cfg.reconstruction.filter_width) is float
    assert ss.ftsi_settings(cfg).filter_width == 3000.0


def test_grid_must_cover_the_pulse(tmp_path, capsys):
    with pytest.raises(ConfigError, match="cover"):
        ss.config_from_dict(raw_config(**{"grid.span_factor": 3}))
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(raw_config(**{"grid.span_factor": 3})), encoding="utf-8")
    for command in ("pipeline", "simulate"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 2
    assert "does not cover the pulse" in capsys.readouterr().err


def test_build_grid_spans_span_factor_fwhm():
    cfg = ss.config_from_dict(raw_config())
    grid = ss.build_grid(cfg)
    fwhm = ss.shear_nm_to_omega(8.0, 830.0)
    assert grid.n_points == 4096
    assert grid.span == pytest.approx(10.0 * fwhm, rel=1e-12)
    # half-open interval: the first bin sits at center - span/2 exactly
    assert grid.omegas[0] == pytest.approx(ss.wavelength_to_omega(830.0) - 5.0 * fwhm, rel=1e-12)


def test_2048_points_resolve_the_fringes_at_10_ps():
    # 2*pi/tau >= 4 domega holds from 2048 points on; 1024 is in REJECTED
    assert ss.config_from_dict(raw_config(**{"grid.n_points": 2048})).grid.n_points == 2048


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize(
    "tweaks, message",
    [({"grid.n_points": 1024}, "fringes not resolvable"),
     (_tabulated([1.0, -0.5]), "table_amplitude"), (_tabulated([0.0, 0.0]), "table_amplitude"),
     (_tabulated([1.0, 1.0], omega=[1.0, 1.1]), "overlap the grid"),
     ({"interferometer.shear_nm": 30}, "grid headroom"),
     ({"interferometer.total_counts": 1e22}, "at most 2**53"),
     ({"grid.center_nm": 0.0}, "center_nm must be positive"),
     ({"reconstruction.filter_width": 1.0}, "filter_width 1 fs leaves no time bin"),
     ({"pulse.center_wavelength": 1e-300}, "does not convert to a finite rad/fs value"),
     ({"pulse.phase_kind": "v_lambda"}, "poly_coeffs is ignored by phase_kind 'v_lambda'")],
    ids=["coarse grid", "negative table", "zero table", "table off the grid", "shear 30 nm",
         "counts 1e22", "grid centre 0 nm", "window without a bin", "carrier 1e-300 nm",
         "v_lambda with poly_coeffs"],
)
def test_rejected_before_any_file_is_written(tmp_path, capsys, command, tweaks, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw_config(**tweaks)), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_calibration_settings_error_exits_2(tmp_path, capsys):
    # the calibration pass builds its settings through the same checked path
    sim = tmp_path / "sim"
    argv = ["simulate", "--preset", "quadratic", "--noiseless", "--out", str(sim), "--quiet"]
    assert main(argv) == 0
    record = str(sim / "interferogram.csv")
    assert main(
        ["reconstruct", record, "--shear-nm", "0.58", "--center-nm", "830",
         "--calibrate-from", record, "--amplitude-floor", "2", "--out", str(tmp_path / "rec")]
    ) == 2
    assert "amplitude_floor" in capsys.readouterr().err


# ---- retired output toggles --------------------------------------------------

RETIRED = {"spectrum": True, "phase": True, "temporal": True, "wigner": False}


@pytest.mark.parametrize("key", sorted(RETIRED))
@pytest.mark.parametrize("value", ["old", None], ids=["old-value", "null"])
def test_retired_output_key_loads_and_leaves_the_echo(key, value):
    value = RETIRED[key] if value == "old" else value
    cfg = ss.config_from_dict(raw_config(**{f"outputs.{key}": value}))
    assert cfg == ss.config_from_dict(raw_config())
    assert ss.config_to_dict(cfg)["outputs"] == {"directory": "out"}


@pytest.mark.parametrize(
    "key, value, message",
    [("wigner", True, "analyze --wigner"), ("spectrum", False, "spectrum.csv is always written"),
     ("phase", 1, "'phase' is retired"), ("temporal", "true", "'temporal' is retired")],
)
def test_retired_output_key_at_another_value_is_refused(key, value, message):
    with pytest.raises(ConfigError, match=message):
        ss.config_from_dict(raw_config(**{f"outputs.{key}": value}))


def test_old_echo_with_retired_keys_runs(tmp_path, capsys):
    old = raw_config(outputs={"directory": str(tmp_path / "cfg-out"), **RETIRED})
    path = tmp_path / "old_echo.json"
    path.write_text(json.dumps(old), encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim"), "--quiet"]) == 0
    echo = json.loads((tmp_path / "sim" / "config_echo.json").read_text(encoding="utf-8"))
    assert set(echo["outputs"]) == {"directory"}

    for key, value in (("wigner", True), ("spectrum", False)):
        path.write_text(json.dumps(raw_config(**{f"outputs.{key}": value})), encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / key)]) == 2
        assert f"{key!r} is retired" in capsys.readouterr().err
        assert not (tmp_path / key).exists()


# ---- retired reconstruction keys ---------------------------------------------

def _retired_cases(values_by_key):
    """(key, value) cases; integration_method's, the first retired, are named by value."""
    cases = [(key, value) for key, values in values_by_key.items() for value in values]
    ids = [str(value) if key == "integration_method" else f"{key}-{json.dumps(value)}"
           for key, value in cases]
    return pytest.mark.parametrize("key, value", cases, ids=ids)


# one integrator, one order-6 super-Gaussian window, the envelope bias always corrected:
# an old echo's value is a no-op (filter_order 6.0 loaded as 6 under the integral rule)
@_retired_cases({"integration_method": ["midpoint_integration", "concatenation", None],
                 "filter_shape": ["super_gaussian", None], "filter_order": [6, 6.0, None],
                 "correct_envelope_bias": [True, None]})
def test_retired_integration_method_loads_and_leaves_the_echo(key, value):
    cfg = ss.config_from_dict(raw_config(**{f"reconstruction.{key}": value}))
    assert cfg == ss.config_from_dict(raw_config())
    assert key not in ss.config_to_dict(cfg)["reconstruction"]


@_retired_cases({"integration_method": ["simpson", 1, True],
                 "filter_shape": ["rectangular", True], "filter_order": [2, 6.5, "6", True],
                 "correct_envelope_bias": [False, "true", 1]})
def test_retired_integration_method_at_another_value_is_refused(tmp_path, capsys, key, value):
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(raw_config(**{f"reconstruction.{key}": value})),
                    encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 2
    assert f"{key!r} is retired" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()
