"""Fractional-programming core: auxiliary-variable updates and surrogates.

The sum rate is lifted in two steps. First the log-det ratios move out of the
logarithm through auxiliary matrices U (one per user); then the remaining
matrix ratio is linearized through auxiliary matrices Y (the per-user MMSE
receive filters). Both updates are closed-form maximizers, and plugging both
back in recovers the exact sum rate:

    f3(W, theta, U*, Y*) = sum-rate(W, theta).

U_k and Y_k are stored as full m_u x m_u complex matrices: the closed-form
optimizers (the SINR matrix and the MMSE filter) are dense in general.

Every quantity that depends on (W, theta) is read off one
``model.LinkState``: ``mmse_filters`` gives Y, ``quad_terms`` and
``surrogate`` give f4 and f3. ``update_y``, ``eval_f4`` and ``eval_f3`` take
(W, theta) instead and compose those readings with ``model.link_state``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .channel import ChannelSet


@dataclass
class AuxState:
    """Auxiliary matrices of the two transforms, one pair per user."""

    u: np.ndarray  # (K, m_u, m_u)
    y: np.ndarray  # (K, m_u, m_u)

    @property
    def ubar(self) -> np.ndarray:
        return self.u + np.eye(self.u.shape[1])[None, :, :]


def update_u(gamma: np.ndarray) -> np.ndarray:
    """Optimal U given everything else: U_k equals the SINR matrix."""
    return np.array(gamma, copy=True)


def mmse_filters(link: model.LinkState) -> np.ndarray:
    """The MMSE receive filters Y_k = Vbar_k^{-1} B_k of one link state, one
    stacked solve over the users."""
    k = np.arange(link.vbar.shape[0])
    return np.linalg.solve(link.vbar, link.b[k, k])


def update_y(h: np.ndarray, w, sigma2: float) -> np.ndarray:
    """Optimal Y given (W, theta): the MMSE receive filter Y_k = Vbar_k^{-1} B_k.

    This is the stationary point of the surrogate in Y; it does not depend
    on U.
    """
    return mmse_filters(model.link_state(h, w, sigma2))


def quad_terms(link: model.LinkState, aux: AuxState) -> float:
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


def aux_constant(aux: AuxState) -> float:
    """sum_k log|I + U_k| - Tr(U_k), the part of f3 that ignores (W, theta, Y)."""
    total = 0.0
    for k in range(aux.u.shape[0]):
        logdet = model._logdet_hermitian(aux.ubar[k])
        if logdet < np.log(1e-12):
            raise np.linalg.LinAlgError("I + U_k is numerically singular")
        total += logdet - np.trace(aux.u[k]).real
    return total


def surrogate(link: model.LinkState, aux: AuxState) -> float:
    """f3 at one link state; equals the sum rate at U = SINR, Y = MMSE."""
    return aux_constant(aux) + quad_terms(link, aux)


def _link_at(w, theta, channels: ChannelSet, sigma2: float) -> model.LinkState:
    return model.link_state(model.effective_channel(channels, theta), w, sigma2)


def eval_f4(w, theta, aux: AuxState, channels: ChannelSet, sigma2: float) -> float:
    """Quadratic surrogate without the U-only constant."""
    return quad_terms(_link_at(w, theta, channels, sigma2), aux)


def eval_f3(w, theta, aux: AuxState, channels: ChannelSet, sigma2: float) -> float:
    """Full surrogate; equals the sum rate at U = SINR, Y = MMSE."""
    return surrogate(_link_at(w, theta, channels, sigma2), aux)


def optimal_aux(h: np.ndarray, w, sigma2: float) -> AuxState:
    """Convenience: both closed-form updates at the current (W, theta)."""
    link = model.link_state(h, w, sigma2)
    return AuxState(u=update_u(model.link_sinr(link)), y=mmse_filters(link))
