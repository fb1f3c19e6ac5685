"""Microbenchmarks of the inner kernels of one outer iteration.

Full scale is one fixed channel draw of the full-scale scenario (6 BSs x 4
antennas, 4 UEs x 2 antennas, 3 x 60-element IRSs): RN = 180 reflection
coefficients and a Zcal of rank at most (K * m_u)^2 = 64. Desk scale is
``desk_config`` with 32-element IRSs (3 BSs x 4 antennas, RN = 64). Times
``build_cmcqp`` (into a reused workspace, as the outer loop calls it) and
``qcr_relax`` at full scale; ``optimize_w``,
``effective_channel``, ``link_state`` (the link matrices, the full
covariances and the Cholesky factors of both covariances at one (H, W)
point), ``sum_rate``, ``aso_solve`` and
``discrete_sweep`` (M = 4; both record their sweeps in
``extra_info["sweeps"]``) at both scales; and ``sdr_solve`` (the
mixing-method SDP, its certificate and the rounding) at desk scale.
``optimize_w`` records the factorizations of M(lambda) its Newton steps
made (``extra_info["factorizations"]``, cold start at the draw's
matched-filter state). ``qcr_relax`` runs twice: from the draw's random phases (a cold
start) and on the subproblem that the QCR scheme meets after a few outer iterations of
the same draw (a warm start, the regime most full-scale QCR calls are in).
Beside them, ``pipeline._phase_step`` times the QCR phase step the outer
loop takes on that warm subproblem: ``qcr_solve`` capped at
``pipeline.QCR_BUDGET`` FISTA steps, the projection and the acceptance
check (``extra_info["iterations"]``).
This directory is outside the test paths; run with BLAS pinned to one
thread for stable numbers:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python -m pytest benchmarks -q
"""

import dataclasses

import numpy as np
import pytest

from cfirs import channel as chan
from cfirs import fp_core, irs_opt, model, pipeline, tx_opt
from cfirs.config import desk_config, full_config

WARM_OUTER = 5


def _aux(h, w, sigma2):
    """Both closed-form auxiliaries at (H, W), read off one link state."""
    link = model.link_state(h, w, sigma2)
    return fp_core.AuxState(u=model.link_sinr(link), y=model.mmse_filters(link))


def _draw(cfg, seed):
    """(cfg, h, w, aux, theta, data, channels) at random phases and
    matched-filter precoders, the state of a first outer iteration."""
    rng = np.random.default_rng(seed)
    geo = chan.sample_ue_positions(chan.default_geometry(cfg), rng)
    ch = chan.sample_channels(cfg, geo, chan.sample_angles(cfg, rng), rng)
    theta = cfg.alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.n_irs_total))
    h = model.effective_channel(ch, theta)
    w = model.matched_filter_init(h, cfg.p_max)
    aux = _aux(h, w, cfg.sigma2)
    return cfg, h, w, aux, theta, irs_opt.build_cmcqp(ch, w, aux), ch


@pytest.fixture(scope="module")
def full_scale():
    cfg = full_config()
    draw = _draw(cfg, 2024)
    data = draw[5]
    assert data.zcal.shape == (180, 180)
    assert np.linalg.matrix_rank(data.zcal) <= 64
    return draw


@pytest.fixture(scope="module")
def desk_scale():
    draw = _draw(desk_config(n=32, n_h=8, n_v=4), 2024)
    assert draw[5].zcal.shape == (64, 64)
    return draw


def test_build_cmcqp(benchmark, full_scale):
    _, _, w, aux, _, data, ch = full_scale
    work = np.empty((2, *data.zcal.shape), complex)
    benchmark(irs_opt.build_cmcqp, ch, w, aux, work)


@pytest.fixture(scope="module")
def full_scale_warm(full_scale):
    """(theta, data) of the phase subproblem in outer iteration WARM_OUTER + 1
    of the QCR scheme on the full-scale draw: U, Y and W updated at the
    phases and precoders that WARM_OUTER outer iterations left."""
    cfg, ch = full_scale[0], full_scale[-1]
    config = dataclasses.replace(cfg, max_outer=WARM_OUTER, eps3=0.0)
    beams, phases, trace = pipeline.joint_optimize(
        ch, config, pipeline.SchemeSpec(solver="qcr"), np.random.default_rng(2024))
    assert trace.iterations == WARM_OUTER
    h = model.effective_channel(ch, phases.theta)
    aux = _aux(h, beams.w, cfg.sigma2)
    w, _, _ = tx_opt.optimize_w(h, aux, cfg, w_prev=beams.w)
    return phases.theta, irs_opt.build_cmcqp(ch, w, aux)


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_qcr_relax(benchmark, start, full_scale, full_scale_warm):
    theta, data = full_scale[4:6] if start == "cold" else full_scale_warm
    _, trace = benchmark(irs_opt.qcr_relax, theta, data)
    benchmark.extra_info["iterations"] = len(trace) - 1


def test_qcr_phase_step(benchmark, full_scale, full_scale_warm):
    cfg = full_scale[0]
    theta, data = full_scale_warm
    scheme = pipeline.SchemeSpec(solver="qcr")
    _, iterations, refused, _ = benchmark(pipeline._phase_step, scheme, theta, data, cfg, None)
    assert not refused and 0 < iterations <= pipeline.QCR_BUDGET
    benchmark.extra_info["iterations"] = iterations


@pytest.mark.parametrize("scale", ["desk_scale", "full_scale"])
def test_optimize_w(benchmark, scale, request):
    cfg, h, w, aux, _, _, _ = request.getfixturevalue(scale)
    _, _, info = benchmark(tx_opt.optimize_w, h, aux, cfg, w_prev=w)
    benchmark.extra_info["factorizations"] = info["iterations"]


@pytest.mark.parametrize("scale", ["desk_scale", "full_scale"])
def test_effective_channel(benchmark, scale, request):
    _, _, _, _, theta, _, ch = request.getfixturevalue(scale)
    benchmark(model.effective_channel, ch, theta)


@pytest.mark.parametrize("scale", ["desk_scale", "full_scale"])
def test_link_state(benchmark, scale, request):
    cfg, h, w, _, _, _, _ = request.getfixturevalue(scale)
    benchmark(model.link_state, h, w, cfg.sigma2)


@pytest.mark.parametrize("scale", ["desk_scale", "full_scale"])
def test_sum_rate(benchmark, scale, request):
    cfg, _, w, _, theta, _, ch = request.getfixturevalue(scale)
    benchmark(model.sum_rate, ch, w, theta, cfg.sigma2)


@pytest.mark.parametrize("scale", ["desk_scale", "full_scale"])
def test_aso_solve(benchmark, scale, request):
    # aso_solve on its own: up to 200 sweeps to irs_opt.EPS2.
    _, _, _, _, theta, data, _ = request.getfixturevalue(scale)
    _, trace = benchmark(irs_opt.aso_solve, theta, data)
    benchmark.extra_info["sweeps"] = len(trace) - 1


@pytest.mark.parametrize("scale", ["desk_scale", "full_scale"])
def test_discrete_sweep(benchmark, scale, request):
    cfg, _, _, _, theta, data, _ = request.getfixturevalue(scale)
    _, sweeps = benchmark(irs_opt.discrete_sweep, theta, data, 4, max_sweeps=cfg.max_aso)
    benchmark.extra_info["sweeps"] = sweeps


def test_sdr_solve(benchmark, desk_scale):
    cfg, _, _, _, _, data, _ = desk_scale
    # A fresh generator per round, so every round starts the factor alike.
    _, _, certified = benchmark(
        lambda: irs_opt.sdr_solve(data, cfg.alpha, rng=np.random.default_rng(0)))
    benchmark.extra_info["certified"] = bool(certified)
