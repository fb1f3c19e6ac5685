"""Microbenchmarks of the phase-subproblem kernels at full scale.

One fixed channel draw of the full-scale scenario (6 BSs x 4 antennas, 4 UEs
x 2 antennas, 3 x 60-element IRSs) gives RN = 180 reflection coefficients
and a Zcal of rank at most (K * m_u)^2 = 64. Times ``build_cmcqp`` and
``qcr_relax`` on it. This directory is outside the test paths; run with
BLAS pinned to one thread for stable numbers:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python -m pytest benchmarks -q
"""

import numpy as np
import pytest

from cfirs import channel as chan
from cfirs import fp_core, irs_opt, model
from cfirs.config import SystemConfig


@pytest.fixture(scope="module")
def full_scale():
    cfg = SystemConfig(l=6, k=4, r=3, m_b=4, m_u=2, n=60, n_h=10, n_v=6)
    rng = np.random.default_rng(2024)
    geo = chan.sample_ue_positions(chan.default_geometry(cfg), rng)
    ch = chan.sample_channels(cfg, geo, chan.sample_angles(cfg, rng), rng)
    theta = cfg.alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.n_irs_total))
    h = model.effective_channel(ch, theta)
    w = model.matched_filter_init(h, cfg.p_max)
    aux = fp_core.optimal_aux(h, w, cfg.sigma2)
    stacked = model.stack(ch)
    data = irs_opt.build_cmcqp(stacked, w, aux)
    assert data.zcal.shape == (180, 180)
    assert np.linalg.matrix_rank(data.zcal) <= 64
    return stacked, w, aux, theta, data


def test_build_cmcqp(benchmark, full_scale):
    stacked, w, aux, _, _ = full_scale
    benchmark(irs_opt.build_cmcqp, stacked, w, aux)


def test_qcr_relax(benchmark, full_scale):
    _, _, _, theta, data = full_scale
    _, trace = benchmark(irs_opt.qcr_relax, theta, data)
    benchmark.extra_info["iterations"] = len(trace) - 1
