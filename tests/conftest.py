import numpy as np
import pytest

from cfirs import channel as chan
from cfirs import fp_core, model
from cfirs.config import desk_config
from cfirs.irs_opt import CmcQpData


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def small_config(**over):
    base = dict(l=2, k=2, r=1, m_b=2, m_u=2, n=4, n_h=2, n_v=2)
    base.update(over)
    return desk_config(**base)


def build_instance(seed, **over):
    """One random desk-scale instance: (config, channels, theta, w, h) with
    the channels per link and w, h stacked."""
    cfg = small_config(**over)
    rng = np.random.default_rng(seed)
    geo = chan.sample_ue_positions(chan.default_geometry(cfg), rng)
    ang = chan.sample_angles(cfg, rng)
    ch = chan.sample_channels(cfg, geo, ang, rng)
    theta = cfg.alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.n_irs_total))
    h = model.effective_channel(ch, theta)
    w = model.matched_filter_init(h, cfg.p_max)
    return cfg, ch, theta, w, h


def per_link(x, l):
    """The per-link blocks (L, K, m_b, m_u) of a stacked (L*m_b, K, m_u)
    channel or precoder array of ``l`` BSs: block [l, k] is rows
    l*m_b:(l+1)*m_b of x[:, k]."""
    rows, k, mu = x.shape
    return x.reshape(l, rows // l, k, mu).transpose(0, 2, 1, 3)


def build_aux(cfg, h, w):
    """Both closed-form auxiliaries at (H, W): U = SINR, Y = MMSE."""
    link = model.link_state(h, w, cfg.sigma2)
    return fp_core.AuxState(u=model.link_sinr(link), y=model.mmse_filters(link))


def _link_at(w, theta, channels, sigma2):
    return model.link_state(model.effective_channel(channels, theta), w, sigma2)


def quad_terms(link: model.LinkState, aux: fp_core.AuxState) -> float:
    """The Y-dependent part shared by f3 and f4 (real by construction for
    Hermitian U)."""
    b, vbar = link.b, link.vbar
    ubar = aux.ubar
    total = 0.0
    for k in range(b.shape[0]):
        yk = aux.y[k]
        total += np.trace(ubar[k] @ yk.conj().T @ b[k, k]).real * 2.0
        total -= np.trace(ubar[k] @ yk.conj().T @ vbar[k] @ yk).real
    return total


def aux_constant(aux: fp_core.AuxState) -> float:
    """sum_k log|I + U_k| - Tr(U_k), the part of f3 that ignores (W, theta, Y)."""
    total = 0.0
    for k in range(aux.u.shape[0]):
        sign, logdet = np.linalg.slogdet(aux.ubar[k])
        if not (abs(sign - 1.0) <= 1e-6 and logdet >= np.log(1e-12)):
            raise np.linalg.LinAlgError("I + U_k is not numerically positive definite")
        total += logdet - np.trace(aux.u[k]).real
    return total


def surrogate(link: model.LinkState, aux: fp_core.AuxState) -> float:
    """f3 at one link state; equals the sum rate at U = SINR, Y = MMSE."""
    return aux_constant(aux) + quad_terms(link, aux)


def f3_at(w, theta, aux, channels, sigma2):
    """The full surrogate at (W, theta); the sum rate at U = SINR, Y = MMSE."""
    return surrogate(_link_at(w, theta, channels, sigma2), aux)


def f4_at(w, theta, aux, channels, sigma2):
    """The surrogate without its U-only constant."""
    return quad_terms(_link_at(w, theta, channels, sigma2), aux)


def cmcqp(zcal, omega):
    """CmcQpData for a hand-built Hermitian PSD zcal."""
    return CmcQpData(zcal=zcal, omega=omega)


def aso_coordinate(theta, i, data):
    """Reference closed-form update of coordinate i on |theta_i| = const.

    mu_i = omega_i - sum_{n != i} Zcal[i, n] theta_n; the optimal phase is
    arg(mu_i). A vanishing mu_i leaves the coordinate untouched (any phase is
    then optimal).
    """
    out = np.array(theta, copy=True)
    mu = data.omega[i] - data.zcal[i] @ theta + data.zcal[i, i] * theta[i]
    if mu != 0:
        out[i] = abs(theta[i]) * np.exp(1j * np.angle(mu))
    return out


def synthetic_cmcqp(seed, nn=8, omega_scale=1.0):
    """Random well-scaled quadratic phase problem (PSD Zcal by construction)."""
    rng = np.random.default_rng(seed)
    m1 = crandn(rng, (nn, 2 * nn))
    z = m1 @ m1.conj().T / nn
    m2 = crandn(rng, (nn, 2 * nn))
    q = m2 @ m2.conj().T / nn
    omega = omega_scale * crandn(rng, nn)
    zcal = z * q.T
    zcal = 0.5 * (zcal + zcal.conj().T)
    return cmcqp(zcal, omega)


@pytest.fixture
def make_instance():
    return build_instance


@pytest.fixture
def make_aux():
    return build_aux


@pytest.fixture
def make_cmcqp():
    return synthetic_cmcqp
