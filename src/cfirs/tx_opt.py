"""Active transmit beamforming: convex QCQP solved by Lagrangian dual ascent.

With the auxiliaries fixed, the precoder subproblem is

    min_W  f5(W) = sum_i Tr(Ws_i^H A Ws_i) - 2 Re sum_i Tr(C_i^H Ws_i)
    s.t.   sum_k ||W[l, k]||_F^2 <= p_max[l]  for every BS l,

where Ws_i stacks W[:, i] over base stations, A = sum_k Hs_k Y_k Ubar_k
Y_k^H Hs_k^H and C_i = Hs_i Y_i Ubar_i. The problem is convex with zero
duality gap, so a projected sub-gradient ascent on the per-BS multipliers
with the closed-form primal

    Ws_i(lambda) = (A + blockdiag(lambda_l I))^{-1} C_i

converges to the optimum. The quadratic matrix A couples base stations, so
the primal solve is joint; a per-BS block inverse is not a stationary point
of the Lagrangian.

Each dual iteration is one L*m_b x L*m_b solve, against a right-hand side
and a matrix buffer the ``QuadraticForm`` keeps, plus one reduction for the
per-BS powers; the L multipliers, step sizes and violation signs are Python
floats between solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .config import SystemConfig
from .fp_core import AuxState
from .model import BeamformerSet

_EIG_FLOOR = 1e-10


@dataclass
class DualState:
    """Per-BS multipliers and step sizes of the dual ascent."""

    lam: np.ndarray       # (L,) nonnegative
    tau: np.ndarray       # (L,) positive step sizes
    iteration: int = 0

    def __post_init__(self):
        self.lam = np.asarray(self.lam, float).copy()
        self.tau = np.asarray(self.tau, float).copy()
        if (self.lam < 0).any():
            raise ValueError("dual variables must be nonnegative")
        if (self.tau <= 0).any():
            raise ValueError("step sizes must be positive")


@dataclass
class QuadraticForm:
    """Cached pieces of f5 for a fixed (theta, U, Y).

    Besides its four fields, a form keeps the stacked right-hand side
    [C_1 ... C_K] (L*m_b x K*m_u, contiguous), diag(A) and one L*m_b x L*m_b
    buffer holding A off the diagonal, so ``solve`` only writes
    a_ii + lambda_l into the buffer's diagonal before each solve.
    """

    a: np.ndarray        # (L*m_b, L*m_b) Hermitian PSD
    c: np.ndarray        # (K, L*m_b, m_u)
    l: int
    m_b: int

    def __post_init__(self):
        dim = self.l * self.m_b
        self._rhs = np.ascontiguousarray(self.c.transpose(1, 0, 2).reshape(dim, -1))
        self._diag = self.a.diagonal().reshape(self.l, self.m_b).copy()
        self._m = self.a.copy()
        # Writable view of the buffer's diagonal, one row of m_b per BS.
        self._m_diag = self._m.reshape(-1)[:: dim + 1].reshape(self.l, self.m_b)

    @classmethod
    def build(cls, h: np.ndarray, aux: AuxState) -> "QuadraticForm":
        L, K, Mb, Mu = h.shape
        hs = h.transpose(1, 0, 2, 3).reshape(K, L * Mb, Mu)
        ubar = aux.ubar
        a = np.zeros((L * Mb, L * Mb), complex)
        c = np.zeros((K, L * Mb, Mu), complex)
        for k in range(K):
            hyu = hs[k] @ aux.y[k]
            a += hyu @ ubar[k] @ hyu.conj().T
            c[k] = hyu @ ubar[k]
        a = 0.5 * (a + a.conj().T)
        return cls(a=a, c=c, l=L, m_b=Mb)

    def value(self, w) -> float:
        ws = self._stacked(w)
        val = 0.0
        for i in range(ws.shape[0]):
            val += np.trace(ws[i].conj().T @ self.a @ ws[i]).real
            val -= 2.0 * np.trace(self.c[i].conj().T @ ws[i]).real
        return val

    def _stacked(self, w) -> np.ndarray:
        w = model._w_array(w)
        L, K, Mb, Mu = w.shape
        return w.transpose(1, 0, 2, 3).reshape(K, L * Mb, Mu)

    def solve(self, lam) -> np.ndarray:
        """Stationary precoders (L, K, m_b, m_u) at the given multipliers.

        The result is a view of the (L*m_b, K*m_u) solution, so
        ``w.transpose(0, 2, 1, 3).reshape(L, -1)`` is a view too.
        """
        m, rhs = self._m, self._rhs
        np.add(self._diag, np.asarray(lam, float)[:, None], out=self._m_diag)
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            sol = _floored_solve(m, rhs)
        if not np.isfinite(sol).all():
            sol = _floored_solve(m, rhs)
        K, Mu = self.c.shape[0], self.c.shape[2]
        ws = sol.reshape(self.l * self.m_b, K, Mu).transpose(1, 0, 2)
        return ws.reshape(K, self.l, self.m_b, Mu).transpose(1, 0, 2, 3)


def _floored_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Pseudo-inverse solve with a floor on small eigenvalues; handles the
    lambda = 0, rank-deficient corner."""
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    floor = max(_EIG_FLOOR, _EIG_FLOOR * float(vals.max(initial=0.0)))
    vals = np.maximum(vals, floor)
    return vecs @ ((vecs.conj().T @ rhs) / vals[:, None])


def _enforce_power(w: np.ndarray, p_max) -> np.ndarray:
    """Scale down any BS block that exceeds its budget (no-op when feasible)."""
    power = np.sum(np.abs(w) ** 2, axis=(1, 2, 3))
    out = w.copy()
    for l, (p, cap) in enumerate(zip(power, p_max)):
        if p > cap * (1.0 + 1e-9) and p > 0:
            out[l] *= math.sqrt(cap / p)
    return out


def _bs_power(w: np.ndarray) -> np.ndarray:
    """Per-BS transmit power of a ``QuadraticForm.solve`` result, summed over
    the solution's (L, m_b * K * m_u) rows."""
    L = w.shape[0]
    return (np.abs(w.transpose(0, 2, 1, 3).reshape(L, -1)) ** 2).sum(axis=1)


def optimize_w(
    h: np.ndarray,
    aux: AuxState,
    config: SystemConfig,
    dual: DualState = None,
    w_prev=None,
):
    """Solve the precoder subproblem.

    Alternates the closed-form primal with per-BS dual updates until the
    multipliers stabilize (relative test, absolute when a multiplier sits at
    zero) or ``config.max_dual`` iterations. Step sizes adapt geometrically
    (halved on a sign flip of the violation, grown while it persists) and
    each multiplier moves at most one decade per iteration; if the loop still
    fails to settle, a bisection pass on each BS's (monotone) power curve
    finishes the job.

    Each iteration costs one ``QuadraticForm.solve`` and one reduction for
    the per-BS powers; the multipliers, step sizes and violation signs are
    Python floats updated one BS at a time and become arrays after the loop.

    Returns (BeamformerSet, DualState, info) where info carries iteration
    count, convergence flag, f5 value, and slackness residuals. The returned
    precoders are always power-feasible; if the new solution is no better
    than ``w_prev`` in f5, ``w_prev`` is returned unchanged (block ascent).
    """
    form = QuadraticForm.build(h, aux)
    p_max = np.asarray(config.p_max, float)
    # In the decoupled limit power_l(lam) ~ ||C_l||_F^2 / lam^2, so
    # ||C_l||_F / sqrt(p_l) is the natural magnitude of an active multiplier.
    c_bs = form.c.reshape(-1, config.l, config.m_b, form.c.shape[2])
    lam_scale = np.sqrt(np.sum(np.abs(c_bs) ** 2, axis=(0, 2, 3)) / p_max)
    lam_scale = np.maximum(lam_scale, 1e-30)
    if dual is None:
        dual = DualState(lam=lam_scale.copy(), tau=np.asarray(config.tau, float))

    # Multipliers below the floor count as zero (the power curve is flat
    # there); the floor keeps the multiplicative trust region usable.
    lam_floor = 1e-14 * lam_scale
    tau_cap = 1e9 * np.asarray(config.tau, float)
    lam, tau = dual.lam.tolist(), dual.tau.tolist()
    budget, scale = p_max.tolist(), lam_scale.tolist()
    floor, cap = lam_floor.tolist(), tau_cap.tolist()
    eps1 = config.eps1
    prev_sign = [0] * config.l
    converged = False
    iters = 0
    for iters in range(1, config.max_dual + 1):
        lam_eff = [x if x > fl else 0.0 for x, fl in zip(lam, floor)]
        power = _bs_power(form.solve(lam_eff)).tolist()
        settled = True
        for l, fl in enumerate(floor):
            f_l = power[l] - budget[l]
            sign = (f_l > 0.0) - (f_l < 0.0)
            # Halve the step whenever a violation changes sign, grow it while
            # the sign persists: a geometric bracket on the monotone f_l that
            # keeps the sub-gradient rule from creeping after an overshoot.
            turn = sign * prev_sign[l]
            if turn < 0:
                tau[l] *= 0.5
            elif turn > 0:
                tau[l] = min(tau[l] * 2.0, cap[l])
            prev_sign[l] = sign
            # The violation is heavily asymmetric around the optimum (bounded
            # by -p_max above it, arbitrarily large below), so each additive
            # step is confined to one decade around the current multiplier. A
            # sleeping multiplier facing a violation restarts at its scale.
            anchor = max(lam[l], fl)
            new = min(max(anchor + tau[l] * f_l, anchor / 10.0), anchor * 10.0)
            if lam[l] <= fl and f_l > 0.0:
                new = max(new, scale[l])
            new = max(new, fl)
            # Relative test on a live multiplier, absolute at zero.
            new_eff, old_eff = (new if new > fl else 0.0), lam_eff[l]
            if new_eff > eps1:
                settled &= abs(new_eff - old_eff) / new_eff < eps1
            else:
                settled &= abs(new_eff - old_eff) < eps1
            lam[l] = new
        if settled:
            converged = True
            break
    lam = np.where(np.array(lam) > lam_floor, lam, 0.0)
    tau = np.array(tau)
    if not converged:
        lam, extra = _bisection_duals(form, lam, p_max)
        iters += extra
        converged = True
    # Exact complementary slackness for constraints that converged to a
    # negligible multiplier: zero them outright when feasibility allows.
    # (The multiplier decay stops once its steps drop below eps1.)
    cutoff = np.maximum(1e-2 * lam_scale, 10.0 * config.eps1)
    small = (lam > 0.0) & (lam < cutoff)
    if small.any():
        trial = np.where(small, 0.0, lam)
        if (_bs_power(form.solve(trial)) <= p_max * (1.0 + 1e-9)).all():
            lam = trial
    w = form.solve(lam)
    dual = DualState(lam=lam, tau=tau, iteration=dual.iteration + iters)

    w = _enforce_power(w, p_max)
    f5 = form.value(w)
    if w_prev is not None:
        w_prev_arr = model._w_array(w_prev)
        f5_prev = form.value(w_prev_arr)
        if f5_prev < f5:
            w, f5 = w_prev_arr.copy(), f5_prev
    power = np.sum(np.abs(w) ** 2, axis=(1, 2, 3))
    info = {
        "iterations": int(dual.iteration),
        "converged": bool(converged),
        "f5": f5,
        "slackness": dual.lam * (power - p_max),
        "power": power,
    }
    return BeamformerSet(w=w), dual, info


def _bisection_duals(form, lam0, p_max, rounds: int = 12, tol: float = 1e-11):
    """Gauss-Seidel bisection: per BS, drive lambda_l to the root of the
    (monotone, non-increasing) power violation, or to zero when the
    constraint is slack there. Returns (lam, power evaluations)."""
    L = p_max.size
    lam = lam0.copy()
    iters = 0

    def power_at(l, value):
        nonlocal iters
        trial = lam.copy()
        trial[l] = value
        iters += 1
        return float(np.sum(np.abs(form.solve(trial)[l]) ** 2))

    for _ in range(rounds):
        moved = 0.0
        for l in range(L):
            old = lam[l]
            if power_at(l, 0.0) <= p_max[l]:
                lam[l] = 0.0
            else:
                hi = max(old, 1.0)
                while power_at(l, hi) > p_max[l] and hi < 1e18:
                    hi *= 2.0
                lo = 0.0
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if power_at(l, mid) > p_max[l]:
                        lo = mid
                    else:
                        hi = mid
                    if hi - lo <= tol * max(hi, 1.0):
                        break
                lam[l] = hi
            moved = max(moved, abs(lam[l] - old))
        if moved <= tol * max(1.0, float(np.max(lam))):
            break
    return lam, iters
