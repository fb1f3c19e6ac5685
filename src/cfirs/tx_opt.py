"""Active transmit beamforming: convex QCQP solved by Newton steps on its dual.

With the auxiliaries fixed, the precoder subproblem is

    min_W  f5(W) = sum_i Tr(Ws_i^H A Ws_i) - 2 Re sum_i Tr(C_i^H Ws_i)
    s.t.   P_l(W) = ||W_l||_F^2 <= p_max[l]  for every BS l,

over the stacked precoders W = [Ws_1 ... Ws_K], whose rows l*m_b to
(l+1)*m_b - 1 are BS l's block W_l, with A = sum_k Hs_k Y_k Ubar_k
Y_k^H Hs_k^H and C_i = Hs_i Y_i Ubar_i. The problem is convex with zero
duality gap, so it is solved through its dual. At multipliers lambda the
Lagrangian's minimizer is the closed form

    Ws_i(lambda) = M(lambda)^{-1} C_i,   M(lambda) = A + blockdiag(lambda_l I),

and the optimal multipliers are those at which every BS with lambda_l > 0
transmits exactly p_max[l] and every BS with lambda_l = 0 stays within its
budget. The quadratic matrix A couples base stations, so the primal solve
is joint; a per-BS block inverse is not a stationary point of the
Lagrangian.

The multipliers are found by projected Newton steps in x = log lambda on
the equations log P_l = log p_max[l] of the live BSs (lambda_l > 0). One
``QuadraticForm.solve`` factors M(lambda) once against [C | I], so it
returns both W and M^{-1}; the per-BS powers and their exact Jacobian

    dP_l / dlambda_m = -2 Re sum_{a in l, b in m} (M^{-1})_ab (W W^H)_ba

come from that one factorization. In the decoupled limit
P_l = ||C_l||_F^2 / lambda_l^2, log P is linear in x and one step is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .config import SystemConfig
from .fp_core import AuxState

_EIG_FLOOR = 1e-10
# Trust region: a Newton step moves each multiplier by at most one decade.
_MAX_LOG_STEP = math.log(10.0)
# A multiplier below this fraction of its BS's scale sleeps (lambda_l = 0).
_SLEEP_FLOOR = 1e-14
# Relative power excess below which a returned block is left as it is.
_POWER_TOL = 1e-9
# The dual's relative power tolerance; its square is the gap tolerance.
EPS1 = 1e-5
# Factorizations of M(lambda) per call, at most.
MAX_DUAL = 500


@dataclass
class QuadraticForm:
    """Cached pieces of f5 for a fixed (theta, U, Y).

    ``c`` is the stacked [C_1 ... C_K] and ``l`` splits its L*m_b rows into
    the BSs' blocks of ``m_b``. Besides its fields, a form keeps C as the
    L*m_b x K*m_u matrix ``c_rows``, the right-hand side [C | I], diag(A) and
    one L*m_b x L*m_b buffer holding A off the diagonal, so ``solve`` only
    writes a_ii + lambda_l into the buffer's diagonal before each
    factorization. After a solve, ``inverse`` holds M(lambda)^{-1}. ``a`` is
    Hermitian up to rounding, as its product gives it; no reader needs more.
    """

    a: np.ndarray        # (L*m_b, L*m_b) Hermitian PSD up to rounding
    c: np.ndarray        # (L*m_b, K, m_u)
    l: int
    m_b: int

    def __post_init__(self):
        dim = self.l * self.m_b
        self.c_rows = self.c.reshape(dim, -1)
        self._rhs = np.hstack([self.c_rows, np.eye(dim)])
        self._diag = self.a.diagonal().reshape(self.l, self.m_b).copy()
        self._m = self.a.copy()
        # Writable view of the buffer's diagonal, one row of m_b per BS.
        self._m_diag = self._m.reshape(-1)[:: dim + 1].reshape(self.l, self.m_b)
        self.inverse = None

    @classmethod
    def build(cls, h: np.ndarray, aux: AuxState, l: int) -> "QuadraticForm":
        """The form at the stacked effective channel ``h`` of ``l`` BSs."""
        hy = model.per_user(h, aux.y)
        c = model.per_user(hy, aux.ubar)
        # A = sum_k C_k (Hs_k Y_k)^H, one product over the users stacked.
        a = c.reshape(len(h), -1) @ hy.reshape(len(h), -1).conj().T
        return cls(a=a, c=c, l=l, m_b=len(h) // l)

    def value(self, w: np.ndarray) -> float:
        ws = w.reshape(self.c_rows.shape)
        return float(np.vdot(ws, self.a @ ws).real - 2.0 * np.vdot(self.c_rows, ws).real)

    def solve(self, lam) -> np.ndarray:
        """Stationary stacked precoders (L*m_b, K, m_u) at the given multipliers.

        One factorization of M(lambda) against [C | I]; the result is a view
        of the solution's first K*m_u columns, and ``inverse`` is set to the
        remaining columns.
        """
        m, rhs = self._m, self._rhs
        np.add(self._diag, np.asarray(lam, float)[:, None], out=self._m_diag)
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            sol = _floored_solve(m, rhs)
        if not np.isfinite(sol).all():
            sol = _floored_solve(m, rhs)
        n = self.c_rows.shape[1]
        self.inverse = sol[:, n:]
        return sol[:, :n].reshape(self.c.shape)


def _floored_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Pseudo-inverse solve with a floor on small eigenvalues; handles the
    lambda = 0, rank-deficient corner."""
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    floor = max(_EIG_FLOOR, _EIG_FLOOR * float(vals.max(initial=0.0)))
    vals = np.maximum(vals, floor)
    return vecs @ ((vecs.conj().T @ rhs) / vals[:, None])


def _power_jacobian(form: QuadraticForm, gram: np.ndarray) -> np.ndarray:
    """Jacobian dP/dlambda of the per-BS powers (L x L, symmetric negative
    semidefinite) at the last ``form.solve``, whose W W^H is ``gram``."""
    L, Mb = form.l, form.m_b
    # Re sum_{a in l, b in m} (M^{-1})_ab conj((W W^H)_ab) (both factors are
    # Hermitian), summed over interleaved real and imaginary parts.
    q = form.inverse.view(float) * gram.view(float)
    return -2.0 * q.reshape(L, Mb, L, 2 * Mb).sum(axis=(1, 3))


def _newton_step(form: QuadraticForm, gram, lam, power, over, p_max, lam_scale):
    """One projected Newton step in x = log lambda from the last
    ``form.solve``, which was made at ``lam`` and gave W W^H = ``gram``, the
    per-BS ``power`` and the BSs ``over`` budget."""
    live = lam > 0.0
    # A BS that transmits nothing has a slack budget and no Newton equation
    # (log P_l is undefined): its multiplier falls one decade.
    idle = power <= 0.0
    step = np.where(live & idle, -_MAX_LOG_STEP, 0.0)
    newton = np.flatnonzero(live & ~idle)
    if newton.size:
        # Newton on log P_l = log p_l over the live BSs, with
        # dP_l/dx_m = lambda_m dP_l/dlambda_m.
        dpdx = _power_jacobian(form, gram)[newton[:, None], newton] * lam[newton]
        target = power[newton] * np.log(p_max[newton] / power[newton])
        dx = np.linalg.solve(dpdx, target)
        # Damped along the Newton direction: the largest move is one decade.
        step[newton] = dx * min(1.0, _MAX_LOG_STEP / np.abs(dx).max())
    new = lam * np.exp(step)
    new[new < _SLEEP_FLOOR * lam_scale] = 0.0
    wake = ~live & over
    new[wake] = lam_scale[wake]
    return new


def optimize_w(
    h: np.ndarray,
    aux: AuxState,
    config: SystemConfig,
    lam: np.ndarray = None,
    w_prev: np.ndarray = None,
):
    """Solve the precoder subproblem at the stacked effective channel ``h``.

    Starts from the per-BS multipliers ``lam`` (cold: every multiplier at
    its BS's scale ||C_l||_F / sqrt(p_l), the multiplier of the decoupled
    limit) and takes projected Newton steps in log lambda, one factorization
    each. The step is scaled down as a whole so that no multiplier moves by
    more than one decade; a live multiplier that drops below 1e-14 of its
    scale sleeps (lambda_l = 0), and a sleeping BS over its budget wakes at
    its scale. A BS is over budget when its power exceeds
    p_l (1 + ``EPS1``), with ``EPS1`` = 1e-5.

    At each factorization W minimizes the Lagrangian, so
    f5(W) - f5* <= sum_l lambda_l |P_l - p_l| to first order in the scaling
    that puts W on its budgets. The loop stops when no BS is over budget and
    that bound is at most ``EPS1`` ** 2 |f5(W)|; BSs more than ``EPS1``
    under budget are then reported with lambda_l = 0 (exact complementary
    slackness). ``MAX_DUAL`` = 500 caps the factorizations.

    Returns (W, lambda, info): the stacked precoders (L*m_b, K, m_u), the
    (L,) multipliers and info carrying "iterations" (the factorizations of
    this call), "converged" (True only when the stop test fired), the f5
    value, the per-BS "power" and the "slackness" residuals
    lambda_l (P_l - p_l). The returned precoders are always power-feasible
    (a block over budget, left by an unconverged loop or within the stop
    tolerance, is scaled down); if they are no better than the stacked
    ``w_prev`` in f5, ``w_prev`` is returned unchanged (block ascent).
    """
    form = QuadraticForm.build(h, aux, config.l)
    p_max = np.asarray(config.p_max, float)
    gap_tol = EPS1 ** 2
    c_norm2 = (np.abs(form.c_rows) ** 2).reshape(config.l, -1).sum(axis=1)
    lam_scale = np.maximum(np.sqrt(c_norm2 / p_max), 1e-30)
    lam = lam_scale.copy() if lam is None else np.array(lam, float)
    lam[lam < _SLEEP_FLOOR * lam_scale] = 0.0
    converged = False
    for solves in range(1, MAX_DUAL + 1):
        w = form.solve(lam)
        rows = w.reshape(form.c_rows.shape)
        gram = rows @ rows.conj().T
        power = gram.diagonal().real.reshape(config.l, config.m_b).sum(axis=1)
        over = power > p_max * (1.0 + EPS1)
        # f5 at the Lagrangian's minimizer: -Re<C, W> - sum_l lambda_l P_l.
        f5 = -np.vdot(form.c_rows, rows).real - lam @ power
        if not over.any() and lam @ np.abs(power - p_max) <= gap_tol * abs(f5):
            converged = True
            break
        if solves < MAX_DUAL:
            lam = _newton_step(form, gram, lam, power, over, p_max, lam_scale)

    # Scale any block over budget onto it (one left by an unconverged loop or
    # within the stop tolerance).
    scale = np.sqrt(p_max / np.where(power > p_max * (1.0 + _POWER_TOL), power, p_max))
    w = w * np.repeat(scale, config.m_b)[:, None, None]
    power = power * scale ** 2
    # A BS more than EPS1 under its budget is slack; its multiplier is
    # negligible once the gap bound closed, and zero is exact.
    lam[power < p_max * (1.0 - EPS1)] = 0.0
    f5 = form.value(w)
    if w_prev is not None:
        f5_prev = form.value(w_prev)
        if f5_prev < f5:
            w, f5 = w_prev.copy(), f5_prev
            power = (np.abs(w) ** 2).reshape(config.l, -1).sum(axis=1)
    info = {
        "iterations": solves,
        "converged": converged,
        "f5": f5,
        "slackness": lam * (power - p_max),
        "power": power,
    }
    return w, lam, info
