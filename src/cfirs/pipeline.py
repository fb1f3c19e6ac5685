"""Outer alternating optimization and Monte-Carlo experiment orchestration.

One outer iteration updates, in order: the auxiliary matrices U (SINR) and Y
(MMSE filters), the transmit precoders (Newton steps on the per-BS dual,
warm-started from the previous iteration's multipliers), and the reflection
phases by the solver's row of ``PHASE_STEPS``, which states each phase
solver's call, budget, guard, extrapolation and unit of work. Each quantity
is evaluated once per iteration: the effective channel once after the phase
step, and one ``model.LinkState`` at the new (W, theta) that gives the new
rate and the next iteration's U and Y (an extrapolation attempt, below, adds
one of each). An outer iteration without a phase step is the U, Y and W
updates and that one link state. A start with a phase step allocates one
(2, RN, RN) workspace and builds every iteration's phase subproblem into it
(``irs_opt.build_cmcqp``), so building a subproblem allocates no RN x RN
array; a subproblem is not read after its phase step.

The achieved sum rate is monotonically non-decreasing across iterations.
With U and Y at their closed forms the surrogate equals the rate at the
iterate the iteration starts from; the W step maximizes it, the phase step
does not lower it (``PHASE_STEPS``), and the rate at (W, theta) is at least
the surrogate there. After a step of an extrapolating row that moved the
phases from theta- to theta+, the loop also tries the extrapolated phases
theta_e = theta+ o exp(j beta arg(theta+ o conj theta-)) (Xu & Yin, SIAM J.
Imaging Sci. 6(3), 2013), which keep every modulus at alpha, and keeps
theta_e only when its rate at W is strictly above that of theta+; the
iteration then ends at the higher of the two rates, and a kept theta_e's
link state is the one the next iteration reads. beta starts at 0.5 for each
start, grows by 1.5 on a kept step up to 3 and halves on a rejected one down
to 0.1.

A start (``_start``) runs these iterations on the estimated channels alone
and yields one ``Step`` per iteration (its rate, time, stage times, dual and
phase-step work). ``joint_optimize`` resumes each start until ``max_outer``
or ``stalled``, the one stop rule, keeps the start with the best rate on the
estimate and reads the true channels once, for that start's final rate. A
``RunTrace`` holds the start rate, the steps, the stop flag, that rate and
the solve's wall time; ``RunTrace.upto`` cuts it after a number of steps
into the run that ``max_outer`` at that number would have made, so the
experiment CLI's ``iterations`` sweep writes each cap's row from one cut.

``solve_realization`` is the one experiment runner (one draw, every scheme
solved on it), ``result_row`` turns one of its traces into a results row
(``ROW_COLUMNS``) for both ``monte_carlo`` and the experiment CLI, and
``aggregate`` is the one mean / standard-error reduction.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import channel as chan
from . import fp_core, irs_opt, model, tx_opt
from .channel import ChannelSet, Geometry
from .config import SystemConfig
from .model import BeamformerSet, PhaseVector

ROW_COLUMNS = ("scheme", "seed", "sum_rate_bits", "iterations", "wall_ms", "converged")

# FISTA steps per QCR phase step inside the outer loop, picked from a curve
# over {20, 40, 80, 160} at desk and full scale (with the extrapolated step):
# 20 lowers a full-scale draw by 3 %, and 80 and 160 end lower on average
# than 40, 160 also slower. ``qcr_solve`` alone keeps its tolerance stop.
QCR_BUDGET = 40
# Sweeps per ASO phase step inside the outer loop: of {1, 2, 3, 5, 10}, every
# budget kept the mean rate of 200 sweeps to tolerance at desk and full scale
# and 1 took the least desk time (scripts/phase_budget_curve.py). ``aso_solve``
# alone keeps its 200 sweeps to ``irs_opt.EPS2``.
ASO_BUDGET = 1
# The extrapolated phase step's beta: start, growth on a kept step and cap,
# shrink on a rejected step and floor.
_BETA_START, _BETA_GROW, _BETA_MAX, _BETA_SHRINK, _BETA_MIN = 0.5, 1.5, 3.0, 0.5, 0.1

# One row per solver with a phase step (``random`` keeps its initial phases
# and ``none`` has no surfaces). A row's ``call(theta, data, scheme, config,
# rng)`` takes one in-loop step and returns (theta, work, bound_open), with
# ``work`` counted in ``unit``; it reads its ``irs_opt`` solver and its budget
# when it runs, so a wrapper or budget set there takes effect. ASO and QCR
# stop at their budgets, where the paper runs both to tolerance, and the
# discrete sweep at ``config.max_aso`` sweeps. The ascents never lower f7; a
# ``guarded`` step, whose rounded point can, is kept only when it does not.
# One that ``extrapolates`` is followed by the extrapolated phase step.
PhaseStep = NamedTuple("PhaseStep", [("call", Callable), ("guarded", bool),
                                     ("extrapolates", bool), ("unit", str)])
PHASE_STEPS = {  # solver: PhaseStep(call, guarded, extrapolates, unit)
    "aso": PhaseStep(lambda theta, data, scheme, config, rng: _traced(
        *irs_opt.aso_solve(theta, data, max_sweeps=ASO_BUDGET)), False, True, "sweeps"),
    "qcr": PhaseStep(lambda theta, data, scheme, config, rng: _traced(
        *irs_opt.qcr_solve(theta, data, max_iter=QCR_BUDGET)), True, True, "FISTA steps"),
    "sdr": PhaseStep(lambda theta, data, scheme, config, rng: _rounded(
        *irs_opt.sdr_solve(data, config.alpha, rng=rng)), True, False, "solves"),
    "discrete": PhaseStep(lambda theta, data, scheme, config, rng: (*irs_opt.discrete_sweep(
        theta, data, scheme.levels, max_sweeps=config.max_aso), False),
        False, False, "sweeps"),
}
PHASE_SOLVERS = (*PHASE_STEPS, "random", "none")


@dataclass(frozen=True)
class SchemeSpec:
    """How one optimization scheme treats the reflecting surfaces.

    solver:
      aso / qcr / sdr  - optimize phases each outer iteration
      discrete         - ASO-style sweep over ``levels`` grid phases, the only
                         solver that reads ``levels``
      random           - keep the random initial phases, optimize W only
      none             - no reflected path at all (IRS-free baseline)
    csi_error_rho: bounded channel-estimation error ratio; optimization runs
      on the perturbed channels, reported rates use the true ones.
    """

    solver: str = "aso"
    levels: int = 0
    csi_error_rho: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.solver not in PHASE_SOLVERS:
            raise ValueError(f"unknown phase solver {self.solver!r}")
        if type(self.levels) is bool or not isinstance(self.levels, (int, np.integer)):
            raise ValueError(f"levels must be an integer, got {self.levels!r}")
        if self.levels < 2 if self.solver == "discrete" else self.levels != 0:
            raise ValueError(f"levels must be >= 2 for discrete and 0 for {self.solver!r}")
        # NaN fails every comparison, so it would pass a bare ">= 0" check.
        rho = self.csi_error_rho
        if type(rho) is bool or not math.isfinite(rho) or rho < 0:
            raise ValueError(f"csi_error_rho must be finite, >= 0 and not a bool, got {rho!r}")
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        if not self.label:
            label = self.solver.upper()
            if self.solver == "discrete":
                label += f"-M{self.levels}"
            if self.csi_error_rho > 0:
                label += f" rho={self.csi_error_rho:g}"
            object.__setattr__(self, "label", label)


class Step(NamedTuple):
    """One outer iteration of a start, recorded when it ends.

    ``rate`` is in nats on the channels optimized, at the (W, theta) the
    iteration ends at; ``elapsed`` is seconds since the start; ``stage``
    holds the seconds of the u, y, w and theta stages, in that order, which
    together span the iteration (theta runs from the end of the W step
    to the end of the iteration: the phase step, the effective channel, the
    link state and any extrapolation). ``dual_iters`` counts the W step's
    factorizations and ``dual_converged`` whether its dual converged within
    ``tx_opt.MAX_DUAL``. The phase step's fields follow its solver's row of
    ``PHASE_STEPS``: ``phase_work`` is in the row's unit, counted also when
    ``phase_refused`` says a guarded step lowered the phase objective and was
    not kept; ``extrapolated`` says whether the extrapolated phases were kept
    and ``bound_open`` whether an SDR step's bound did not close.
    """

    rate: float
    elapsed: float
    stage: tuple
    dual_iters: int
    dual_converged: bool
    phase_work: int
    phase_refused: bool
    extrapolated: bool
    bound_open: bool


@dataclass(frozen=True)
class RunTrace:
    """One start's run: its start rate (nats, on the channels optimized), one
    ``Step`` per outer iteration, whether the stop rule ended it, its final
    rate in nats on the true channels, and ``wall_s``, the seconds its solve
    took (``joint_optimize`` from entry to that rate, every start included).
    ``sum_rate``, ``iterations``, ``dual_iterations`` and ``stage_seconds``
    are read off the steps."""

    start_rate: float
    steps: tuple
    converged: bool
    final_sum_rate_true: float
    wall_s: float

    @property
    def sum_rate(self) -> list:
        """The start rate, then each step's rate."""
        return [self.start_rate] + [s.rate for s in self.steps]

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def dual_iterations(self) -> list:
        return [s.dual_iters for s in self.steps]

    @property
    def stage_seconds(self) -> dict:
        """Seconds per stage, summed over the steps."""
        names = ("u", "y", "w", "theta")
        return {name: sum(s.stage[i] for s in self.steps) for i, name in enumerate(names)}

    def upto(self, cap: int, eps3: float) -> "RunTrace":
        """The trace cut after ``cap`` steps (1 <= cap <= iterations): its
        ``converged`` is ``stalled`` at the cap under ``eps3``, its final
        rate is the rate at the cap and its ``wall_s`` the cap step's
        ``elapsed``. When ``stalled`` under ``eps3`` holds at
        no earlier step, the cut is the run that ``max_outer = cap`` and
        ``eps3`` make from the same generator.

        The rate at the cap is read on the channels optimized. Those are the
        true channels when ``csi_error_rho`` = 0, which the experiment CLI's
        ``iterations`` sweep requires, so there the cut's final rate is the
        true-channel rate.
        """
        if not 1 <= cap <= len(self.steps):
            raise ValueError(f"cap {cap} is outside 1..{len(self.steps)}")
        rates = self.sum_rate
        return RunTrace(self.start_rate, self.steps[:cap], stalled(rates[cap - 1], rates[cap], eps3),
                        rates[cap], self.steps[cap - 1].elapsed)


def _init_theta(config: SystemConfig, scheme: SchemeSpec, rng: np.random.Generator):
    """A start's random phases, or None when the scheme uses no surfaces."""
    if scheme.solver == "none" or config.r == 0:
        return None
    phases = rng.uniform(0.0, 2.0 * np.pi, config.n_irs_total)
    return config.alpha * np.exp(1j * phases)


def _traced(theta, *rest):
    """(theta, work, False) from a solver whose last output is its f7 trace."""
    return theta, len(rest[-1]) - 1, False


def _rounded(theta, bound, closed):
    """(theta, 1, bound_open) from one ``sdr_solve``."""
    return theta, 1, not closed


def _phase_step(scheme, theta, data, config, rng):
    """One step of the scheme's ``PHASE_STEPS`` row; returns (theta, work,
    refused, bound_open). A guarded step that lowers the phase objective is
    refused: theta comes back unchanged, and its work is still counted."""
    row = PHASE_STEPS[scheme.solver]
    f_old = irs_opt.eval_f7(theta, data) if row.guarded else None
    new, work, bound_open = row.call(theta, data, scheme, config, rng)
    refused = row.guarded and not irs_opt.eval_f7(new, data) >= f_old
    return (theta if refused else new), work, refused, bound_open


def joint_optimize(channels: ChannelSet, config: SystemConfig, scheme: SchemeSpec,
                   rng: np.random.Generator, n_starts: int = 1):
    """Run the alternating optimizer for one channel realization.

    Returns (BeamformerSet, PhaseVector, RunTrace), W stacked. Every start
    runs on one channel estimate (perturbed when scheme.csi_error_rho > 0),
    and the trace's rates are on it; ``final_sum_rate_true`` is read on the
    true channels once, at the kept start's (W, theta).

    ``n_starts`` > 1 restarts from fresh random phases and keeps the start
    with the best rate on the estimate.
    """
    entry = time.perf_counter()
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    channels.validate(config)
    # The perturbation draw happens even at rho = 0 so that sweeps over rho
    # share both the channel realization and the error direction.
    opt_channels = chan.apply_csi_error(channels, scheme.csi_error_rho, rng)
    best = None
    for _ in range(n_starts):
        start = _start(opt_channels, config, scheme, rng)
        w, theta, start_rate = next(start)
        rate, steps, converged = start_rate, [], False
        for w, theta, step in itertools.islice(start, config.max_outer):
            steps.append(step)
            converged = stalled(rate, step.rate, config.eps3)
            if converged:
                break
            rate = step.rate
        if best is None or steps[-1].rate > best[3][-1].rate:
            best = (w, theta, start_rate, tuple(steps), converged)
    w, theta, start_rate, steps, converged = best
    final = model.sum_rate(channels, w, theta, config.sigma2)
    trace = RunTrace(start_rate, steps, converged, final, time.perf_counter() - entry)
    phases = theta if theta is not None else np.zeros(0, complex)
    return BeamformerSet(w=w, l=config.l), PhaseVector(theta=phases, alpha=config.alpha), trace


def stalled(rate: float, new_rate: float, eps3: float) -> bool:
    """The outer stop rule: the rate moved by less than ``eps3`` relative to
    the new rate. A zero new rate never stops the loop."""
    return new_rate != 0 and abs(new_rate - rate) / abs(new_rate) < eps3


def _extrapolated(theta, prev, beta):
    """theta o exp(j beta arg(theta o conj prev)): the phase move from prev to
    theta, continued by beta times its length; every modulus is kept."""
    return theta * np.exp(1j * beta * np.angle(theta * prev.conj()))


def _start(opt, config, scheme, rng):
    """One start on the channels ``opt``, resumed by its caller: yields its
    start point (W, theta, rate), then (W, theta, Step) after each outer
    iteration. W is stacked and theta None when the scheme uses no surfaces."""
    start = time.perf_counter()
    theta = _init_theta(config, scheme, rng)
    row = PHASE_STEPS.get(scheme.solver) if theta is not None else None
    work = np.empty((2, theta.size, theta.size), complex) if row is not None else None
    beta = _BETA_START
    h = model.effective_channel(opt, theta)
    w = model.matched_filter_init(h, config.p_max)
    link = model.link_state(h, w, config.sigma2)
    yield w, theta, model.link_rate(link)
    lam = None
    while True:
        t0 = time.perf_counter()
        u = model.link_sinr(link)
        t1 = time.perf_counter()
        y = model.mmse_filters(link)
        aux = fp_core.AuxState(u=u, y=y)
        t2 = time.perf_counter()
        w, lam, winfo = tx_opt.optimize_w(h, aux, config, lam=lam, w_prev=w)
        t3 = time.perf_counter()
        phase_work, refused, bound_open = 0, False, False
        prev = theta
        if row is not None:
            # Overwrites the previous iteration's subproblem, which no one
            # holds past its phase step.
            data = irs_opt.build_cmcqp(opt, w, aux, work)
            theta, phase_work, refused, bound_open = _phase_step(scheme, theta, data, config, rng)
            h = model.effective_channel(opt, theta)
        # One link state at the new (W, theta) gives the new rate and the
        # next iteration's U and Y.
        link = model.link_state(h, w, config.sigma2)
        new_rate = model.link_rate(link)
        kept = False
        if row is not None and row.extrapolates and not np.array_equal(theta, prev):
            cand = _extrapolated(theta, prev, beta)
            cand_h = model.effective_channel(opt, cand)
            cand_link = model.link_state(cand_h, w, config.sigma2)
            cand_rate = model.link_rate(cand_link)
            kept = cand_rate > new_rate
            if kept:
                theta, h, link, new_rate = cand, cand_h, cand_link, cand_rate
                beta = min(_BETA_MAX, beta * _BETA_GROW)
            else:
                beta = max(_BETA_MIN, beta * _BETA_SHRINK)
        t4 = time.perf_counter()
        yield w, theta, Step(new_rate, t4 - start, (t1 - t0, t2 - t1, t3 - t2, t4 - t3),
                             winfo["iterations"], winfo["converged"], phase_work, refused, kept,
                             bound_open)


def scheme_seed_key(master_seed: int, seed_index: int, label: str) -> np.random.SeedSequence:
    """Child seed for one (realization, scheme) pair.

    The scheme enters through a stable digest of its label, so adding or
    reordering schemes never changes the draws of the others.
    """
    digest = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(1, seed_index, digest))


def channel_seed_key(master_seed: int, seed_index: int) -> np.random.SeedSequence:
    """Child seed for the shared channel realization of one Monte-Carlo draw."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(0, seed_index))


def realize_channels(config: SystemConfig, geometry: Geometry, master_seed: int,
                     seed_index: int) -> ChannelSet:
    """Sample the shared (UE positions, angles, fading) realization; a
    ``fixed_ue`` geometry keeps its UE positions."""
    rng = np.random.default_rng(channel_seed_key(master_seed, seed_index))
    geo = chan.sample_ue_positions(geometry, rng)
    angles = chan.sample_angles(config, rng)
    return chan.sample_channels(config, geo, angles, rng)


def solve_realization(config: SystemConfig, geometry: Geometry, schemes, master_seed: int,
                      seed_index: int, n_starts: int = 1):
    """Run every scheme, each with its own ``scheme_seed_key`` generator, on
    one shared channel draw; returns [(scheme, RunTrace)] in order."""
    channels = realize_channels(config, geometry, master_seed, seed_index)
    out = []
    for scheme in schemes:
        rng = np.random.default_rng(scheme_seed_key(master_seed, seed_index, scheme.label))
        # Looked up on this module per call, so a wrapper set as
        # pipeline.joint_optimize (instrumentation, tests) sees every solve.
        out.append((scheme, joint_optimize(channels, config, scheme, rng, n_starts=n_starts)[2]))
    return out


def result_row(scheme: SchemeSpec, seed_index: int, trace: RunTrace) -> dict:
    """The ``ROW_COLUMNS`` row of one solve: its rate on the true channels in
    bits, iteration count, wall time and convergence flag, all off its trace."""
    return dict(zip(ROW_COLUMNS, (
        scheme.label, seed_index, trace.final_sum_rate_true / np.log(2.0),
        trace.iterations, trace.wall_s * 1e3, trace.converged,
    )))


def monte_carlo(config: SystemConfig, geometry: Geometry, schemes, n_seeds: int,
                master_seed: int = 0, n_starts: int = 1):
    """Run every scheme on the same channel realizations.

    Returns one ``result_row`` per (seed, scheme). Rows for one seed share
    the channel draw, so per-seed scheme differences are paired.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    return [
        result_row(scheme, seed_index, trace)
        for seed_index in range(n_seeds)
        for scheme, trace in solve_realization(
            config, geometry, schemes, master_seed, seed_index, n_starts=n_starts
        )
    ]


def aggregate(rows):
    """Mean and standard error of ``sum_rate_bits`` per scheme label."""
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row["scheme"], []).append(row["sum_rate_bits"])
    out = {}
    for label, values in by_scheme.items():
        arr = np.asarray(values, float)
        stderr = arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0
        out[label] = {"mean": float(arr.mean()), "stderr": float(stderr), "count": arr.size}
    return out
