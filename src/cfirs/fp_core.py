"""Fractional-programming core: auxiliary-variable updates and surrogates.

The sum rate is lifted in two steps. First the log-det ratios move out of the
logarithm through auxiliary matrices U (one per user); then the remaining
matrix ratio is linearized through auxiliary matrices Y (the per-user MMSE
receive filters). Both updates are closed-form maximizers, and plugging both
back in recovers the exact sum rate:

    f3(W, theta, U*, Y*) = sum-rate(W, theta).

U_k and Y_k are stored as full m_u x m_u complex matrices: the closed-form
optimizers (the SINR matrix and the MMSE filter) are dense in general.
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


def update_y(h: np.ndarray, w, sigma2: float) -> np.ndarray:
    """Optimal Y given (W, theta): the MMSE receive filter Y_k = Vbar_k^{-1} B_k.

    This is the stationary point of the surrogate in Y; it does not depend
    on U.
    """
    b = model.link_matrices(h, w)
    _, vbar = model.noise_plus_interference(b, sigma2)
    K = b.shape[0]
    y = np.empty_like(vbar)
    for k in range(K):
        y[k] = np.linalg.solve(vbar[k], b[k, k])
    return y


def _quad_terms(h: np.ndarray, w, aux: AuxState, sigma2: float) -> float:
    """The Y-dependent part shared by f3 and f4 (real by construction for
    Hermitian U)."""
    b = model.link_matrices(h, w)
    _, vbar = model.noise_plus_interference(b, sigma2)
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


def eval_f4(w, theta, aux: AuxState, channels: ChannelSet, sigma2: float) -> float:
    """Quadratic surrogate without the U-only constant."""
    h = model.effective_channel(channels, theta)
    return _quad_terms(h, w, aux, sigma2)


def eval_f3(w, theta, aux: AuxState, channels: ChannelSet, sigma2: float) -> float:
    """Full surrogate; equals the sum rate at U = SINR, Y = MMSE."""
    return aux_constant(aux) + eval_f4(w, theta, aux, channels, sigma2)


def optimal_aux(h: np.ndarray, w, sigma2: float) -> AuxState:
    """Convenience: both closed-form updates at the current (W, theta)."""
    gamma = model.sinr(h, w, sigma2)
    return AuxState(u=update_u(gamma), y=update_y(h, w, sigma2))
