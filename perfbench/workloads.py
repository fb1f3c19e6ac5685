"""The benchmark's workloads and the output checks applied to every solve.

A workload turns the workload seed into a sequence of units. A unit is one
call into the library's public entry points that completes a known number
of solves: one ``expcli.run_spec`` sweep, or one channel draw (the README
quick-start calls) followed by one ``pipeline.joint_optimize``. The first
``panel_units`` units are always run and alone define the reported rates and
counts, so those repeat exactly for a given seed; the runner keeps adding
units while the measuring time lasts.

Realization ``i`` of seed ``s`` uses the library's paired-seed keys
``channel_seed_key(s, i)`` and ``scheme_seed_key(s, i, label)``, so every
scheme sees the same channel draw and a seed reproduces its inputs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cfirs import channel as chan
from cfirs import expcli, pipeline
from cfirs.config import SystemConfig, desk_config
from cfirs.pipeline import SchemeSpec

# The ``--full`` preset base of scripts/run_sweep.py: 6 BSs x 4 antennas,
# 4 UEs x 2 antennas, 3 x 60-element IRSs.
FULL_BASE = dict(l=6, k=4, r=3, m_b=4, m_u=2, n=60, n_h=10, n_v=6, p_max=(0.1,), sigma2=1e-11)

# Successive ``run_spec`` passes of one desk_sweep run use master seeds
# seed, seed + stride, seed + 2 * stride, ... so no pass repeats an input.
PASS_SEED_STRIDE = 1_000_000


@dataclass
class Unit:
    label: str
    expected: int                 # solves the unit completes when nothing raises
    run: Callable[[], None]


class DeskSweep:
    """The ``phase_shifts`` preset at desk scale, run through ``expcli.run_spec``."""

    name = "desk_sweep"

    # Four panel passes (576 solves) keep the seed-to-seed spread of the
    # mean rate near 3 %; one pass alone spread 6 % over seeds 1-5.
    def __init__(self, out_dir: Path, n_seeds: int = 12, sweep_values=(8, 16, 32),
                 panel_units: int = 4):
        self.out_dir = Path(out_dir)
        self.panel_units = panel_units
        self.n_seeds = n_seeds
        self.sweep_values = list(sweep_values)
        self.schemes = [
            {"solver": "aso"},
            {"solver": "discrete", "levels": 4},
            {"solver": "random"},
            {"solver": "none"},
        ]
        self.base = dataclasses.asdict(desk_config())

    def describe(self) -> dict:
        return {
            "scale": "desk_config(): 3 BSs x 4 antennas, 2 UEs x 2 antennas, 2 IRSs; "
                     f"n_phase_shifts in {self.sweep_values}; {self.n_seeds} realizations per pass",
            "schemes": [SchemeSpec(**s).label for s in self.schemes],
        }

    def unit(self, seed: int, index: int) -> Unit:
        doc = {
            "base": self.base,
            "sweep": "n_phase_shifts",
            "sweep_values": self.sweep_values,
            "schemes": self.schemes,
            "n_seeds": self.n_seeds,
            "master_seed": seed + index * PASS_SEED_STRIDE,
        }
        out = self.out_dir / self.name

        def run():
            expcli.run_spec(expcli.ExperimentSpec.from_dict(doc), out, threads=1)

        expected = len(self.sweep_values) * len(self.schemes) * self.n_seeds
        return Unit(f"pass {index}", expected, run)


def _solve_realization(config: SystemConfig, geometry, scheme: SchemeSpec, seed: int, index: int):
    """One channel draw (README quick-start calls) and one joint optimization."""
    rng = np.random.default_rng(pipeline.channel_seed_key(seed, index))
    geo = chan.sample_ue_positions(geometry, rng)
    channels = chan.sample_channels(config, geo, chan.sample_angles(config, rng), rng)
    scheme_rng = np.random.default_rng(pipeline.scheme_seed_key(seed, index, scheme.label))
    pipeline.joint_optimize(channels, config, scheme, scheme_rng)


class FullScale:
    """The full-scale scenario with one phase solver and the default config."""

    # Two panel solves keep the work that every run must finish under 30 s,
    # half the run length, and the mean full-scale rate varies little
    # between draws (2 % spread over seeds 1-5).
    def __init__(self, solver: str, config: SystemConfig = None, panel_units: int = 2):
        self.name = f"full_{solver}"
        self.config = config if config is not None else SystemConfig(**FULL_BASE)
        self.geometry = chan.default_geometry(self.config)
        self.scheme = SchemeSpec(solver=solver)
        self.panel_units = panel_units

    def describe(self) -> dict:
        c = self.config
        return {
            "scale": f"{c.l} BSs x {c.m_b} antennas, {c.k} UEs x {c.m_u} antennas, "
                     f"{c.r} x {c.n}-element IRSs; max_outer={c.max_outer}, max_aso={c.max_aso}",
            "schemes": [self.scheme.label],
        }

    def unit(self, seed: int, index: int) -> Unit:
        return Unit(
            f"realization {index}", 1,
            lambda: _solve_realization(self.config, self.geometry, self.scheme, seed, index),
        )


class Relax:
    """The relaxation solvers: SDR at desk scale, QCR at full scale, alternating."""

    name = "relax"

    def __init__(self, sdr_config: SystemConfig = None, qcr_config: SystemConfig = None,
                 panel_units: int = 2):
        # SDR keeps the default 16 elements per surface: at 8 the ADMM
        # converges and its iteration cap, the regime measured here, is hidden.
        self.sdr_config = sdr_config if sdr_config is not None else desk_config()
        self.qcr_config = qcr_config if qcr_config is not None else SystemConfig(**FULL_BASE)
        self.sdr_geometry = chan.default_geometry(self.sdr_config)
        self.qcr_geometry = chan.default_geometry(self.qcr_config)
        self.sdr = SchemeSpec(solver="sdr")
        self.qcr = SchemeSpec(solver="qcr")
        self.panel_units = panel_units

    def describe(self) -> dict:
        s, q = self.sdr_config, self.qcr_config
        return {
            "scale": f"SDR: {s.r} x {s.n}-element IRSs (desk); QCR: {q.r} x {q.n}-element IRSs (full)",
            "schemes": [self.sdr.label, self.qcr.label],
        }

    def unit(self, seed: int, index: int) -> Unit:
        realization = index // 2
        if index % 2 == 0:
            args = (self.sdr_config, self.sdr_geometry, self.sdr)
        else:
            args = (self.qcr_config, self.qcr_geometry, self.qcr)
        return Unit(
            f"realization {realization} / {args[2].label}", 1,
            lambda: _solve_realization(*args, seed, realization),
        )


def warm_up() -> None:
    """One desk-scale ASO solve at a fixed input, so lazy set-up inside numpy
    and the package is done before anything is timed."""
    config = desk_config()
    _solve_realization(config, chan.default_geometry(config), SchemeSpec(solver="aso"), 0, 0)


def make(name: str, out_dir: Path, tiny: bool = False):
    """Build a workload by name; ``tiny`` shrinks it for the self-tests."""
    if name == "desk_sweep":
        return DeskSweep(out_dir, n_seeds=1, sweep_values=(8,), panel_units=1) if tiny else DeskSweep(out_dir)
    if name in ("full_aso", "full_qcr"):
        solver = name[len("full_"):]
        return FullScale(solver, desk_config(max_outer=3)) if tiny else FullScale(solver)
    if name == "relax":
        if tiny:
            return Relax(desk_config(n=4, n_h=2, n_v=2, max_outer=2), desk_config(max_outer=2))
        return Relax()
    raise KeyError(name)


WORKLOADS = ("desk_sweep", "full_qcr", "full_aso", "relax")


def check_solve(config: SystemConfig, scheme: SchemeSpec, result) -> list:
    """The output checks of one solve; returns the failed checks' messages."""
    w, theta, trace = result
    failures = []
    try:
        w.validate(config.p_max)
    except ValueError as exc:
        failures.append(f"power budget: {exc}")
    levels = scheme.levels if scheme.solver == "discrete" else 0
    try:
        theta.validate(levels)
    except ValueError as exc:
        failures.append(f"phases: {exc}")
    rates = np.asarray(trace.sum_rate, float)
    if not (np.diff(rates) >= -1e-9 * np.abs(rates[1:])).all():
        failures.append("rate trace decreases")
    if not math.isfinite(trace.final_sum_rate_true):
        failures.append("final rate is not finite")
    return failures
