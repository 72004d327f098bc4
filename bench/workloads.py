"""The benchmark's three workloads and the correctness gate applied to each op.

Each workload builds its inputs in `__init__` (timed as set-up), runs one op
per call to `op(seed)` (timed), and checks the op's outputs in `check`
(not timed).  Ops reach the program only through `shearspec.cli.main(argv)`
and the `shearspec` package API, looked up at call time so that a traced
run sees its wrappers.

`TAIL_PCT` is the percentile `op_tail_s` reports.  It is fixed per workload,
so that two commits compare the same percentile, and is the highest of p50,
p75 and p90 with at least ten of a 30 s run's ops above it.  Higher
percentiles are left out: a few percent of ops land on the host's slow
spells, which made p98 of `recon-65k` vary by 30% between runs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import shearspec
import shearspec.cli

PHI2_TRUE_FS2 = 8.7e4
PHI3_TRUE_FS3 = 5.0e5
# Set from a 500-seed sweep at 1e6 counts with the quadratic preset.  At
# N=4096 phi2 scattered with sd 96 fs^2 (worst 241) and phi3 with sd 1.6e4
# fs^3 (worst 4.8e4); N=65536 gave sd 88 fs^2 (worst 223) and 1.6e4 fs^3
# (worst 4.5e4).  The fit's reported stderr is about 25x smaller than this
# scatter, so it is not used.  The phi2 tolerance is about ten standard
# deviations, and a third of the 3.1e3 fs^2 shift a 5 fs delay error causes.
PHI2_TOL_FS2 = 1.0e3
PHI3_TOL_FS3 = 1.5e5
# Worst truth overlap in the same sweep: 0.9987 at N=4096, 0.9961 at N=65536.
OVERLAP_FLOOR = 0.99


@dataclass
class Outcome:
    """What `check` found: a failure reason (None when the op passed) and
    the values the runner reports."""

    reason: str | None
    overlap: float = float("nan")
    fingerprint: bytes = b""
    bytes_written: int = 0


def gate(phi2s, phi3s, overlap: float) -> str | None:
    for phi2 in phi2s:
        if not abs(phi2 - PHI2_TRUE_FS2) <= PHI2_TOL_FS2:
            return f"phi2 {phi2:.6g} fs^2 outside {PHI2_TRUE_FS2:g} +- {PHI2_TOL_FS2:g}"
    for phi3 in phi3s:
        if not abs(phi3 - PHI3_TRUE_FS3) <= PHI3_TOL_FS3:
            return f"phi3 {phi3:.6g} fs^3 outside {PHI3_TRUE_FS3:g} +- {PHI3_TOL_FS3:g}"
    if not overlap >= OVERLAP_FLOOR:
        return f"truth overlap {overlap:.6g} below {OVERLAP_FLOOR}"
    return None


def _tree_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, f))
        for dirpath, _, files in os.walk(path)
        for f in files
    )


def _cli(argv: list) -> int:
    return shearspec.cli.main([str(a) for a in argv] + ["--quiet"])


class McTrials:
    """`pipeline --preset quadratic --trials 20` at N=4096, default outputs."""

    name = "mc-trials"
    TRIALS = 20
    TAIL_PCT = 50

    def __init__(self, workdir: Path, rng: random.Random):
        self.out = workdir / "op"

    def op(self, seed: int) -> int:
        return _cli(["pipeline", "--preset", "quadratic", "--trials", self.TRIALS,
                     "--seed", seed, "--out", self.out])

    def check(self, rc: int) -> Outcome:
        if rc != 0:
            return Outcome(f"pipeline exit code {rc}")
        summary = json.loads((self.out / "summary.json").read_text())
        trials = summary["trials"]
        if trials["n"] != self.TRIALS:
            return Outcome(f"summary reports {trials['n']} trials")
        overlap = summary["overlap_with_truth"]
        return Outcome(
            gate(trials["phi2_fs2"], trials["phi3_fs3"], overlap),
            overlap,
            (self.out / "trial_000" / "result.json").read_bytes(),
            _tree_bytes(self.out),
        )

    def cleanup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class Recon65k:
    """Library loop at N=65536: detect_counts -> reconstruct -> mode_overlap."""

    name = "recon-65k"
    N_POINTS = 65536
    TAIL_PCT = 90

    def __init__(self, workdir: Path, rng: random.Random):
        cfg = shearspec.preset("quadratic")
        self.cfg = replace(cfg, grid=replace(cfg.grid, n_points=self.N_POINTS))
        self.truth = shearspec.synthesize(self.cfg.pulse, shearspec.build_grid(self.cfg))
        self.shear = shearspec.shear_config(self.cfg)
        self.ideal = shearspec.ideal_interferogram(self.truth, self.shear)
        self.settings = shearspec.ftsi_settings(self.cfg)

    def op(self, seed: int):
        rec = shearspec.detect_counts(self.ideal, self.cfg.interferometer.total_counts, seed)
        result = shearspec.reconstruct(rec, self.shear, self.settings)
        return result, shearspec.mode_overlap(result.mode(), self.truth)

    def check(self, value) -> Outcome:
        result, overlap = value
        fit = result.coefficients
        fingerprint = b"".join(
            [result.amplitude_abs.tobytes(), result.phase_rad.tobytes(), repr(fit).encode()]
        )
        return Outcome(
            gate([fit.coefficient(2)], [fit.coefficient(3)], overlap), overlap, fingerprint
        )

    def cleanup(self) -> None:
        pass


class ReloadAnalyze:
    """Read path at N=4096: reconstruct a CSV record with delay calibration,
    then `analyze --truth --wigner` its result.json."""

    name = "reload-analyze"
    RECORDS = 8
    TAIL_PCT = 75

    def __init__(self, workdir: Path, rng: random.Random):
        self.out = workdir / "op"
        inputs = workdir / "inputs"
        _cli(["simulate", "--preset", "quadratic", "--trials", self.RECORDS,
              "--seed", rng.getrandbits(63), "--out", inputs / "rec"])
        # The calibration record is noiseless: truth overlap is not invariant
        # to a time shift, and at 1e6 counts the calibrated delay scatters by
        # 0.18 fs, which moves the pulse by about 250 fs and drops the overlap
        # to a few percent.  A noiseless reference calibrates exactly.
        cal = shearspec.config_to_dict(shearspec.preset("quadratic"))
        cal["interferometer"]["shear_nm"] = 0.0
        (inputs / "cal.json").write_text(json.dumps(cal))
        _cli(["simulate", "--config", inputs / "cal.json", "--noiseless", "--out", inputs / "cal"])
        self.records = [inputs / "rec" / f"trial_{i:03d}" / "interferogram.csv"
                        for i in range(self.RECORDS)]
        self.truth = inputs / "rec" / "truth_mode.json"
        self.cal = inputs / "cal" / "interferogram.csv"
        missing = [p for p in [*self.records, self.truth, self.cal] if not p.is_file()]
        if missing:
            raise RuntimeError(f"set-up did not write {missing[0]}")

    def delay_args(self) -> list:
        return ["--calibrate-from", self.cal]

    def op(self, seed: int) -> int:
        record = self.records[seed % self.RECORDS]
        rc = _cli(["reconstruct", record, "--shear-nm", "0.58", "--center-nm", "830",
                   *self.delay_args(), "--out", self.out])
        if rc != 0:
            return rc
        return _cli(["analyze", self.out / "result.json", "--truth", self.truth,
                     "--wigner", "--out", self.out])

    def check(self, rc: int) -> Outcome:
        if rc != 0:
            return Outcome(f"reconstruct/analyze exit code {rc}")
        if not (self.out / "wigner.csv").stat().st_size:
            return Outcome("wigner.csv is empty")
        report = json.loads((self.out / "report.json").read_text())
        co = report["coefficients"]
        overlap = report["overlap_with_truth"]
        return Outcome(
            gate([co["phi2_fs2"]], [co["phi3_fs3"]], overlap),
            overlap,
            (self.out / "result.json").read_bytes(),
            _tree_bytes(self.out),
        )

    def cleanup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (McTrials, Recon65k, ReloadAnalyze)}
