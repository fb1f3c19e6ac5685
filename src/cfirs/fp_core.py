"""Fractional-programming core: the auxiliary closed forms and the surrogate.

The sum rate is lifted in two steps. First the log-det ratios move out of the
logarithm through auxiliary matrices U (one per user); then the remaining
matrix ratio is linearized through auxiliary matrices Y (the per-user MMSE
receive filters). Both updates are closed-form maximizers, and plugging both
back in recovers the exact sum rate:

    f3(W, theta, U*, Y*) = sum-rate(W, theta).

U_k and Y_k are stored as full m_u x m_u complex matrices: the closed-form
optimizers (the SINR matrix and the MMSE filter) are dense in general.

Every quantity that depends on (W, theta) is read off one
``model.LinkState``: ``model.link_sinr`` gives U, ``mmse_filters`` gives Y,
``quad_terms`` and ``surrogate`` give f4 and f3. ``surrogate`` is the one
statement of f3, the reference against which the recovery identity is
checked; the outer loop itself never evaluates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model


@dataclass
class AuxState:
    """Auxiliary matrices of the two transforms, one pair per user."""

    u: np.ndarray  # (K, m_u, m_u)
    y: np.ndarray  # (K, m_u, m_u)

    @property
    def ubar(self) -> np.ndarray:
        return self.u + np.eye(self.u.shape[1])[None, :, :]


def mmse_filters(link: model.LinkState) -> np.ndarray:
    """The MMSE receive filters Y_k = Vbar_k^{-1} B_k of one link state, one
    stacked solve over the users."""
    k = np.arange(link.vbar.shape[0])
    return np.linalg.solve(link.vbar, link.b[k, k])


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
