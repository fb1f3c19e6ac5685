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
``model.LinkState``: ``model.link_sinr`` gives U and ``model.mmse_filters``
gives Y. The outer loop never evaluates f3 itself, so its one statement (with
f4, its Y-dependent part) lives beside the tests that check the recovery
identity against it, in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AuxState:
    """Auxiliary matrices of the two transforms, one pair per user."""

    u: np.ndarray  # (K, m_u, m_u)
    y: np.ndarray  # (K, m_u, m_u)

    @property
    def ubar(self) -> np.ndarray:
        return self.u + np.eye(self.u.shape[1])[None, :, :]

