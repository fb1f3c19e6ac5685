import dataclasses
import itertools

import numpy as np
import pytest

from cfirs import channel as chan
from cfirs import model
from cfirs.channel import ChannelSet
from cfirs.config import full_config
from cfirs.model import BeamformerSet

from conftest import build_instance, crandn, per_link, small_config

# No two of L, K, R, m_b, m_u and N equal, so a stacked layout with swapped
# axes cannot match the per-link oracles; and the same without surfaces.
LAYOUT = dict(l=3, k=4, r=2, m_b=5, m_u=2, n=6, n_h=3, n_v=2)
LAYOUT_NO_IRS = dict(LAYOUT, r=0)


# ---- independent oracles (kept loop-based on purpose) ----

def naive_effective(channels, theta):
    """Per-link formula with explicit python loops and diag matrices."""
    L, K, Mb, Mu = channels.direct.shape
    R = channels.irs_ue.shape[0]
    N = channels.irs_ue.shape[2] if R else 0
    h = np.array(channels.direct, copy=True)
    for l in range(L):
        for k in range(K):
            for r in range(R):
                th = np.diag(theta[r * N:(r + 1) * N])
                h[l, k] += channels.bs_irs[l, r].conj().T @ th.conj().T @ channels.irs_ue[r, k]
    return h


def naive_sum_rate(channels, w, theta, sigma2):
    """log det(I + Gamma) with explicit inverses, accumulated link by link."""
    h = naive_effective(channels, theta)
    L, K, Mb, Mu = h.shape
    total = 0.0
    for k in range(K):
        b = []
        for i in range(K):
            acc = np.zeros((Mu, Mu), complex)
            for l in range(L):
                acc += h[l, k].conj().T @ w[l, i]
            b.append(acc)
        v = sigma2 * np.eye(Mu, dtype=complex)
        for i in range(K):
            if i != k:
                v += b[i] @ b[i].conj().T
        gamma = b[k].conj().T @ np.linalg.inv(v) @ b[k]
        total += np.log(np.linalg.det(np.eye(Mu) + gamma)).real
    return total


# ---- the stacked arrays of a ChannelSet (d, g, s) ----

def test_stack_single_block():
    cfg, ch, theta, w, h = build_instance(0, l=1, r=1)
    np.testing.assert_array_equal(ch.s, ch.bs_irs[0, 0])


def test_stack_two_bs_layout():
    cfg, ch, _, _, _ = build_instance(1, l=2, r=1)
    a = ch.bs_irs[0, 0]
    same = ChannelSet(
        direct=ch.direct,
        irs_ue=ch.irs_ue,
        bs_irs=np.stack([a[None], a[None]]),  # both BS->IRS blocks equal
    )
    np.testing.assert_array_equal(same.s, np.hstack([a, a]))


def test_stack_blockwise_consistency():
    cfg, ch, _, _, _ = build_instance(2, l=2, r=2, n=4, n_h=2, n_v=2)
    N, Mb = cfg.n, cfg.m_b
    for r in range(cfg.r):
        for l in range(cfg.l):
            np.testing.assert_array_equal(
                ch.s[r * N:(r + 1) * N, l * Mb:(l + 1) * Mb], ch.bs_irs[l, r]
            )
    for k in range(cfg.k):
        for l in range(cfg.l):
            np.testing.assert_array_equal(
                ch.d[l * Mb:(l + 1) * Mb, k], ch.direct[l, k]
            )
        for r in range(cfg.r):
            np.testing.assert_array_equal(
                ch.g[r * N:(r + 1) * N, k], ch.irs_ue[r, k]
            )


def test_stacked_form_reproduces_per_link_channel():
    # pins down the block orientation of the aggregated BS->IRS matrix
    cfg, ch, theta, _, _ = build_instance(3, l=2, r=2, n=4, n_h=2, n_v=2)
    th = np.diag(theta)
    for k in range(cfg.k):
        hs = ch.d[:, k] + ch.s.conj().T @ th.conj().T @ ch.g[:, k]
        per_link = naive_effective(ch, theta)
        for l in range(cfg.l):
            np.testing.assert_allclose(
                hs[l * cfg.m_b:(l + 1) * cfg.m_b], per_link[l, k], rtol=1e-12
            )


# ---- effective channel ----

def test_effective_channel_no_irs():
    cfg, ch, _, _, _ = build_instance(4, r=0)
    h = model.effective_channel(ch, None)
    np.testing.assert_array_equal(per_link(h, cfg.l), ch.direct)


def test_effective_channel_zero_cascade():
    cfg, ch, theta, _, _ = build_instance(5)
    dead = ChannelSet(direct=ch.direct, irs_ue=np.zeros_like(ch.irs_ue), bs_irs=ch.bs_irs)
    h = model.effective_channel(dead, theta)
    np.testing.assert_allclose(per_link(h, cfg.l), ch.direct)


def test_effective_channel_matches_naive():
    for over in (dict(l=2, r=2, n=4, n_h=2, n_v=2), LAYOUT, LAYOUT_NO_IRS):
        cfg, ch, theta, _, _ = build_instance(6, **over)
        h = model.effective_channel(ch, theta)
        np.testing.assert_allclose(per_link(h, cfg.l), naive_effective(ch, theta), rtol=1e-12)


def einsum_effective(channels, theta):
    """The per-link definition as one three-operand einsum over (r, n)."""
    R, N = channels.irs_ue.shape[0], channels.irs_ue.shape[2]
    return channels.direct + np.einsum(
        "lrnm,rn,rknu->lkmu",
        channels.bs_irs.conj(), np.asarray(theta).reshape(R, N).conj(), channels.irs_ue,
    )


@pytest.mark.parametrize("over", [
    dict(l=3, k=2, r=2, m_b=4, m_u=2, n=16, n_h=4, n_v=4),
    dataclasses.asdict(full_config()),
    dict(l=3, k=2, r=2, m_b=4, m_u=2, n=16, n_h=4, n_v=4, alpha=0.5),
], ids=["desk", "full", "alpha-0.5"])
def test_effective_channel_matches_einsum_definition(over):
    for seed in (0, 1):
        cfg, ch, theta, _, _ = build_instance(seed, **over)
        ref = einsum_effective(ch, theta)
        got = per_link(model.effective_channel(ch, theta), cfg.l)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# ---- SINR and rate ----

def test_sinr_zero_beamformers():
    cfg, ch, theta, w, h = build_instance(7)
    gamma = model.sinr(h, np.zeros_like(w), cfg.sigma2)
    np.testing.assert_allclose(gamma, 0.0, atol=1e-30)


def test_sinr_scalar_case():
    cfg, ch, theta, _, h = build_instance(8, l=1, k=1, m_b=1, m_u=1, r=0)
    h = model.effective_channel(ch, None)
    w = np.full((1, 1, 1), 0.3 + 0.1j)
    gamma = model.sinr(h, w, cfg.sigma2)
    expected = np.abs(h[0, 0, 0]) ** 2 * np.abs(0.3 + 0.1j) ** 2 / cfg.sigma2
    assert gamma[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_rate_matches_naive_loop_oracle():
    for over, seed in itertools.product((dict(k=2), LAYOUT, LAYOUT_NO_IRS), range(5)):
        cfg, ch, theta, w, h = build_instance(seed, **over)
        got = model.sum_rate(ch, w, theta, cfg.sigma2)
        want = naive_sum_rate(ch, per_link(w, cfg.l), theta, cfg.sigma2)
        assert got == pytest.approx(want, rel=1e-9)


def test_rate_zero_beamformers():
    cfg, ch, theta, w, _ = build_instance(9)
    assert model.sum_rate(ch, np.zeros_like(w), theta, cfg.sigma2) == 0.0


def test_rate_scalar_shannon():
    cfg, ch, _, _, _ = build_instance(10, l=1, k=1, m_b=1, m_u=1, r=0)
    w = np.full((1, 1, 1), 0.2 - 0.4j)
    got = model.sum_rate(ch, w, None, cfg.sigma2)
    snr = np.abs(ch.direct[0, 0, 0, 0] * (0.2 - 0.4j)) ** 2 / cfg.sigma2
    assert got == pytest.approx(np.log(1 + snr), rel=1e-12)


def test_rate_invariant_to_common_unitary():
    cfg, ch, theta, w, h = build_instance(11)
    rng = np.random.default_rng(0)
    base = model.sum_rate(ch, w, theta, cfg.sigma2)
    m = crandn(rng, (cfg.m_u, cfg.m_u))
    q, _ = np.linalg.qr(m)
    rotated = np.array(w, copy=True)
    for k in range(cfg.k):
        rotated[:, k] = rotated[:, k] @ q
    assert model.sum_rate(ch, rotated, theta, cfg.sigma2) == pytest.approx(base, rel=1e-10)


def test_rate_without_irs_equals_zero_cascade():
    cfg, ch, theta, w, _ = build_instance(12)
    dead = ChannelSet(direct=ch.direct, irs_ue=np.zeros_like(ch.irs_ue), bs_irs=ch.bs_irs)
    with_dead = model.sum_rate(dead, w, theta, cfg.sigma2)
    without = model.sum_rate(dead, w, None, cfg.sigma2)
    assert with_dead == pytest.approx(without, rel=1e-12)


def test_logdet_identity_paths_agree():
    for seed in range(5):
        cfg, ch, theta, w, h = build_instance(seed + 20)
        via_identity = model.sum_rate(ch, w, theta, cfg.sigma2)
        gamma = model.sinr(h, w, cfg.sigma2)
        sign, logdet = np.linalg.slogdet(np.eye(cfg.m_u) + gamma)
        np.testing.assert_allclose(sign, 1.0, atol=1e-12)
        via_sinr = np.sum(logdet)
        assert via_identity == pytest.approx(via_sinr, rel=1e-9)
        for g in gamma:
            assert np.linalg.eigvalsh(g).min() > -1e-10


def test_beamformer_power_accounting():
    # The second shape has l != k and m_b != m_u, so a wrong row split shows.
    for over in ({}, dict(l=3, k=2, m_b=5, m_u=2)):
        cfg, ch, theta, w, _ = build_instance(13, **over)
        w = BeamformerSet(w=w, l=cfg.l)
        w.validate(cfg.p_max)
        power = w.per_bs_power()
        assert power.shape == (cfg.l,)
        for l in range(cfg.l):
            rows = w.w[l * cfg.m_b:(l + 1) * cfg.m_b]
            manual = sum(np.linalg.norm(rows[:, k]) ** 2 for k in range(cfg.k))
            assert power[l] == pytest.approx(manual, rel=1e-12)


def test_beamformer_validate_rejects_relative_excess():
    # Two one-antenna BSs and one single-antenna user: BS l's power is p[l].
    def beams(*p):
        return BeamformerSet(w=np.sqrt(p).astype(complex).reshape(2, 1, 1), l=2)

    # The tolerance is relative (1e-8) at every budget.
    beams(1e-8, 1e-8 * (1 + 1e-9)).validate((1e-8,))
    with pytest.raises(ValueError, match="exceeds budget"):
        beams(1e-8, 2e-8).validate((1e-8,))
    beams(0.1, 0.1 * (1 + 1e-9)).validate((0.1,))
    with pytest.raises(ValueError, match="exceeds budget"):
        beams(0.1 * (1 + 1e-7), 0.1).validate((0.1,))
    # 3.5e-6 W over a 1e4 W budget is 3.5e-10 relative.
    beams(1e4, 1e4 * (1 + 3.5e-10)).validate((1e4,))
    with pytest.raises(ValueError, match="exceeds budget"):
        beams(1e4, 1e4 * (1 + 1e-7)).validate((1e4,))


def test_phase_vector_validation():
    theta = 0.8 * np.exp(1j * 2 * np.pi * np.array([0, 1, 2, 3]) / 4)
    model.PhaseVector(theta=theta, alpha=0.8).validate(discrete_levels=4)
    with pytest.raises(ValueError):
        model.PhaseVector(theta=theta, alpha=0.9).validate()
    with pytest.raises(ValueError):
        bad = theta.copy()
        bad[1] *= np.exp(1j * 0.3)
        model.PhaseVector(theta=bad, alpha=0.8).validate(discrete_levels=4)


# ---- the one positive-definiteness check ----

# (covariance, user, matrix): one covariance of three users that is not
# positive definite; every other covariance is the identity.
NOT_PD = {
    "real_indefinite": ("interference", 2, [[1.0, 2.0], [2.0, 1.0]]),
    # det = +1: a sign test cannot see an even count of negative eigenvalues.
    "two_negative_eigenvalues": ("interference", 1, [[-1.0, 0.0], [0.0, -1.0]]),
    "singular": ("interference", 2, np.outer([1.0, 1j], [1.0, -1j])),
    "nan": ("interference", 0, [[1.0, np.nan], [np.nan, 1.0]]),
    "receive": ("receive", 2, [[2.0, 1j], [-1j, -1.0]]),
}


@pytest.mark.parametrize("case", sorted(NOT_PD))
def test_cholesky_names_a_covariance_that_is_not_pd(case):
    which, user, bad = NOT_PD[case]
    vbar, v = (np.stack([np.eye(2, dtype=complex)] * 3) for _ in range(2))
    (v if which == "interference" else vbar)[user] = bad
    with pytest.raises(np.linalg.LinAlgError,
                       match=f"{which} covariance of user {user} is not positive definite"):
        model._cholesky(vbar, v)


def test_logdet_rejects_indefinite_matrix():
    # det = -3: slogdet returns sign -1 and log 3, which would read as a rate;
    # the log-determinants are read off Cholesky factors, which do not exist.
    a = np.array([[2.0, 1j], [-1j, -1.0]])
    assert np.linalg.slogdet(a) == pytest.approx((-1.0, np.log(3.0)))
    eye = np.stack([np.eye(2, dtype=complex)] * 3)
    v = eye.copy()
    v[2] = a
    with pytest.raises(np.linalg.LinAlgError,
                       match="interference covariance of user 2 is not positive definite"):
        model._cholesky(eye, v)


def test_link_rate_rejects_a_covariance_that_is_not_pd():
    # Without noise and with user 1 silent, user 0 hears no interference:
    # V_0 = 0 while Vbar_0 = B_00 B_00^H is PD. link_state refuses the point,
    # so link_rate never reads a log-determinant of a singular covariance.
    rng = np.random.default_rng(5)
    h = crandn(rng, (4, 2, 2))
    w = crandn(rng, (4, 2, 2))
    w[:, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError,
                       match="interference covariance of user 0 is not positive definite"):
        model.link_rate(model.link_state(h, w, 0.0))


def test_link_state_refuses_noise_lost_in_rounding():
    # User 1 receives about 1e11 W: a noise power below eps times that is
    # lost from V_1, and the point is refused naming the user; above, not.
    rng = np.random.default_rng(5)
    h = crandn(rng, (4, 2, 2))
    w = crandn(rng, (4, 2, 2))
    h[:, 1] *= 1e5
    power = np.diagonal(model.link_state(h, w, 1.0).vbar, axis1=-2, axis2=-1).real
    assert power[1].max() > 1e10 and power[0].max() < 1e3
    lost = np.finfo(float).eps * power.max()
    model.link_state(h, w, 2.0 * lost)
    with pytest.raises(np.linalg.LinAlgError,
                       match="noise power .* of user 1 is below the rounding of its receive power"):
        model.link_state(h, w, 0.5 * lost)
