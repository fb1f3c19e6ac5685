"""Passive reflecting beamforming: constant-modulus quadratic programming.

For fixed precoders and auxiliaries, the phase subproblem reduces to

    max_theta  f7(theta) = -theta^H Zcal theta + 2 Re{theta^H omega}
    s.t.       |theta_i| = alpha  for every reflection coefficient,

with Zcal = Z o Q^T (Hadamard product of two PSD matrices, hence Hermitian
PSD, of rank at most (K * m_u)^2: 64 of RN = 180 at full scale) and omega
the diagonal of E - A. ``build_cmcqp`` assembles them into a caller's
(2, RN, RN) workspace, Zcal in its first slice and its one RN x RN scratch
in the second, and makes no strided RN x RN temporary; the outer loop
reuses one workspace per start, so the returned Zcal is valid until the
next build into it. Four solvers are provided:

* cyclic coordinate ascent with the closed-form per-element phase update
  theta_i = alpha * exp(j * arg(mu_i)) (exact per-coordinate maximizer),
* accelerated projected gradient with function-value restart (monotone
  FISTA; Beck & Teboulle 2009, O'Donoghue & Candes 2015) on the disc
  relaxation |theta_i| <= alpha under the diagonal majorizer
  diag(sum_j |Zcal_ij|) of Zcal, followed by a projection onto the modulus
  circle,
* semidefinite relaxation of the lifted problem, solved on a low-rank
  factor X = V V^H by the mixing method (Wang, Chang & Kolter 2017) with a
  dual upper bound certified for any V, then rounded by Gaussian
  randomization,
* exhaustive per-coordinate search over a discrete phase grid.

The first and the last share one coordinate-ascent loop and differ only in
the per-coordinate rule (best point of the circle or of the grid). All
solvers read f7 as ``eval_f7`` does: Re theta^H (2 omega - Zcal theta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .channel import ChannelSet
from .fp_core import AuxState

# ASO's sweep tolerance, the paper's eps2, relative to f7 (see ``aso_solve``).
EPS2 = 1e-8


@dataclass(frozen=True)
class CmcQpData:
    """Quadratic form of the phase subproblem: zcal is Hermitian PSD and
    omega holds the diagonal of E - A."""

    zcal: np.ndarray    # (RN, RN)
    omega: np.ndarray   # (RN,)


def build_cmcqp(
    channels: ChannelSet, w: np.ndarray, aux: AuxState, work: np.ndarray = None
) -> CmcQpData:
    """Assemble (Zcal, omega) from the stacked channels and precoders.

    Z  = sum_k G_k Y_k Ubar_k Y_k^H G_k^H
    Q  = S Wcov S^H with Wcov = sum_i Ws_i Ws_i^H
    A  = sum_k G_k Y_k Ubar_k Y_k^H D_k^H Wcov S^H
    E  = sum_k G_k Y_k Ubar_k Ws_k^H S^H

    Zcal = Z o Q^T and omega = diag(E - A). Only thin factors are formed:
    with P = [G_k Y_k Ubar_k]_k and C = [G_k Y_k]_k (both RN x K*m_u) and
    W = [Ws_1 ... Ws_K] (L*m_b x K*m_u), Z = P C^H, Q = B B^H with B = S W,
    and Wcov = W W^H; A and E are never formed, as omega = diag(P M^H) with
    M = S (W - Wcov [D_k Y_k]_k). Zcal is Hermitian up to rounding, as the
    two products give it; no reader needs exact symmetry.

    ``work`` is a complex (2, RN, RN) workspace: Zcal is written into
    work[0], and work[1] is the only RN x RN scratch (Q^T, formed as the
    contiguous product conj(B) B^T), so no strided RN x RN temporary is
    made. The returned zcal is work[0] itself and is valid until the next
    build into the same workspace. Without ``work`` the call allocates its
    own.
    """
    wst = w.reshape(len(w), -1)
    wcov = wst @ wst.conj().T
    nn = len(channels.s)

    gy = model.per_user(channels.g, aux.y)
    p = model.per_user(gy, aux.ubar).reshape(nn, -1)
    c = gy.reshape(nn, -1)
    dy = model.per_user(channels.d, aux.y).reshape(wst.shape)
    omega = np.sum(p * (channels.s @ (wst - wcov @ dy)).conj(), axis=1)

    if work is None:
        work = np.empty((2, nn, nn), complex)
    zcal, scratch = work
    b = channels.s @ wst
    np.matmul(p, c.conj().T, out=zcal)
    np.matmul(b.conj(), b.T, out=scratch)
    zcal *= scratch
    return CmcQpData(zcal=zcal, omega=omega)


def eval_f7(theta: np.ndarray, data: CmcQpData) -> float:
    """f7 = Re theta^H (2 omega - Zcal theta), the form every solver's trace
    reads; concave over the torus (Zcal is PSD)."""
    return float(np.vdot(theta, 2.0 * data.omega - data.zcal @ theta).real)


def _alpha_of(theta: np.ndarray) -> float:
    mags = np.abs(theta)
    alpha = float(mags[0]) if mags.size else 1.0
    if mags.size and np.max(np.abs(mags - alpha)) > 1e-9 * max(alpha, 1.0):
        raise ValueError("starting point must have constant modulus")
    return alpha


def _circle_rule(alpha: float):
    """Per-coordinate maximizer on |theta_i| = alpha; keeps theta_i at mu_i = 0.

    cmath.rect(alpha, arg mu) agrees with alpha * exp(j arg mu) to within one
    ulp (numpy's complex exp rounds differently on a few percent of phases).
    """

    def best(mu, current):
        return cmath.rect(alpha, cmath.phase(mu)) if mu != 0 else current

    return best


def _grid_rule(alpha: float, levels: int):
    """Per-coordinate maximizer over the ``levels``-point phase grid; near
    ties (1e-12 relative) go to the lower grid index.

    The score of grid point g is Re(conj(g) mu) = Re g Re mu + Im g Im mu,
    taken in Python floats. The best point is one of the two around arg mu,
    k = floor(M arg mu / 2 pi) mod M and k + 1: every other point is at least
    2 pi / M from arg mu, so its score trails the best by at least
    alpha |mu| (cos(pi / M) - cos(2 pi / M)). Only those two are scored
    unless that gap, with a fourfold margin for rounding, could fall within
    the near-tie cut (mu = 0 among others); then all M points are.
    """
    grid = (alpha * np.exp(2j * np.pi * np.arange(levels) / levels)).tolist()
    parts = [(g.real, g.imag) for g in grid]
    per_radian = levels / (2.0 * math.pi)
    gap = alpha * (math.cos(math.pi / levels) - math.cos(2.0 * math.pi / levels))

    def best(mu, current):
        mr, mi = mu.real, mu.imag
        r = abs(mu)
        if r * gap <= 4e-12 * max(1.0, alpha * r):
            scores = [gr * mr + gi * mi for gr, gi in parts]
            top = max(scores)
            cut = top - 1e-12 * max(1.0, abs(top))
            return next(g for g, score in zip(grid, scores) if score >= cut)
        k = math.floor(cmath.phase(mu) * per_radian) % levels
        lo, hi = (0, k) if k == levels - 1 else (k, k + 1)
        s_lo = parts[lo][0] * mr + parts[lo][1] * mi
        s_hi = parts[hi][0] * mr + parts[hi][1] * mi
        top = max(s_lo, s_hi)
        return grid[lo] if s_lo >= top - 1e-12 * max(1.0, abs(top)) else grid[hi]

    return best


def _ascend(theta0, data: CmcQpData, best, eps2: float, max_sweeps: int):
    """Cyclic coordinate ascent: each visit sets theta_i <- best(mu_i, theta_i)
    with mu_i = omega_i - sum_{n != i} Zcal[i, n] theta_n, keeping Zcal theta
    up to date. Stops after a sweep whose f7 change is at most eps2 *
    max(1, |trace[0]|). Returns (theta, trace), trace[u] the f7 after sweep u.

    A sweep visits the coordinates in order, in consecutive blocks of
    b = ceil(sqrt(RN)). theta, omega and the block's b x b diagonal sub-block
    of Zcal are Python complex lists, and the block's rows of Zcal theta are
    read into one at its start; a move of theta_i by delta is pushed to the
    block's later rows through column i of the sub-block. After the block,
    Zcal theta += Zcal[:, block] @ deltas in one numpy call, skipped when
    nothing moved. Every trace entry is Re theta^H (2 omega - Zcal theta) on
    the maintained vector, so a sweep that moves nothing repeats f7 exactly.
    """
    theta = np.array(theta0, copy=True)
    nn = theta.size
    if nn == 0:
        return theta, [0.0]
    zcal, two_omega = data.zcal, 2.0 * data.omega
    zth = zcal @ theta
    trace = [float(np.vdot(theta, two_omega - zth).real)]
    tol = eps2 * max(1.0, abs(trace[0]))
    size = math.isqrt(nn - 1) + 1
    blocks = []
    for s in range(0, nn, size):
        # sub[k] is column k of the block's diagonal sub-block: sub[k][k] is
        # Zcal[s + k, s + k] and sub[k][k + 1:] holds the block's later rows.
        blocks.append((s, zcal[:, s:s + size], data.omega[s:s + size].tolist(),
                       zcal[s:s + size, s:s + size].T.tolist()))
    th = theta.tolist()
    for _ in range(max_sweeps):
        for s, cols, omega, sub in blocks:
            b = len(omega)
            z = zth[s:s + b].tolist()
            deltas = [0j] * b
            for k, col in enumerate(sub):
                cur = th[s + k]
                new = best(omega[k] - z[k] + col[k] * cur, cur)
                if new != cur:
                    delta = deltas[k] = new - cur
                    th[s + k] = new
                    for j in range(k + 1, b):
                        z[j] += col[j] * delta
            if any(deltas):
                zth += cols @ np.array(deltas)
        theta = np.array(th)
        trace.append(float(np.vdot(theta, two_omega - zth).real))
        if abs(trace[-1] - trace[-2]) <= tol:
            break
    return theta, trace


def aso_solve(theta0, data: CmcQpData, eps2: float = EPS2, max_sweeps: int = 200):
    """Cyclic coordinate ascent until the objective stalls: it stops after a
    sweep that changes f7 by at most eps2 * max(1, |f7(theta0)|), so the rule
    keeps its meaning across power and array-size regimes.

    Returns (theta, trace) where trace[u] is the objective after sweep u
    (trace[0] is the starting value); the sequence is non-decreasing.
    """
    return _ascend(theta0, data, _circle_rule(_alpha_of(theta0)), eps2, max_sweeps)


def qcr_relax(theta0, data: CmcQpData, tol: float = 1e-10, max_iter: int = 5000):
    """Accelerated projected gradient ascent on the disc relaxation |theta_i| <= alpha.

    Monotone FISTA (Beck & Teboulle, SIAM J. Imaging Sci. 2009) with
    function-value restart (O'Donoghue & Candes, Found. Comput. Math. 2015)
    in the metric of the diagonal majorizer D = diag(d), d_i = sum_j
    |Zcal_ij| (Jacobi bound: D - Zcal is Hermitian and diagonally dominant
    with a nonnegative diagonal, so D >= Zcal). Each step extrapolates
    y = theta_k + beta_k (theta_k - theta_{k-1}), moves every element by its
    own step s_i = 1 / (2 d_i) along omega - Zcal y and clips it back into
    its disc (the D-weighted projection onto a product of discs is the
    per-element radial clip). A candidate whose objective falls below
    f7(theta_k) is discarded: the momentum restarts and the plain projected
    step from theta_k, which maximizes a minorizer of f7 and so never
    decreases it, is taken instead; the trace is non-decreasing. d_i is
    floored at 1e-12 max_i d_i, which keeps a larger d_i a majorizer and the
    step of an element with a zero row of Zcal finite: it lands on
    alpha omega_i / |omega_i|, or keeps theta_i when omega_i = 0.

    Zcal theta is kept for the current iterate and yields both the gradient
    and f7(theta) = Re theta^H (2 omega - Zcal theta); Zcal y follows by
    linearity, so a step costs one Zcal mat-vec (two on a restart). Each
    iterate and its image Zcal theta are the two rows of one array, and the
    step updates preallocated arrays in place. The clip multiplies by
    alpha / max(|v_i|, alpha), which is exactly 1 inside a disc. Stops when
    the objective changes by at most tol relative. Returns (theta_relaxed,
    objective_trace).
    """
    theta = np.array(theta0, copy=True)
    if theta.size == 0:
        return theta, [0.0]
    alpha = _alpha_of(theta)
    d = np.abs(data.zcal).sum(axis=1)
    d_max = float(d.max())
    scale = float(np.abs(data.omega).max(initial=0.0)) + d_max
    if d_max <= 1e-14 * max(scale, 1.0):
        # Purely linear objective: boundary point in the direction of omega.
        out = theta.copy()
        nz = data.omega != 0
        out[nz] = alpha * np.exp(1j * np.angle(data.omega[nz]))
        return out, [eval_f7(theta, data), eval_f7(out, data)]
    step = 0.5 / np.maximum(d, 1e-12 * d_max)
    omega, zcal = data.omega, data.zcal
    two_omega = 2.0 * omega
    nn = theta.size

    # Each buffer is (rows, rows[0], rows[1]) with rows = [iterate; Zcal
    # iterate]; the row views are taken once. cur holds theta_k, prv
    # theta_{k-1}, ext the extrapolated point y, nxt the candidate.
    cur, prv, ext, nxt = [(b, b[0], b[1]) for b in np.empty((4, 2, nn), complex)]
    cur[1][...] = theta
    np.matmul(zcal, cur[1], out=cur[2])
    prv[0][...] = cur[0]
    resid = np.empty(nn, complex)
    gain = np.empty(nn)

    def step_from(src, dst):
        # dst = clip(y + step (omega - Zcal y)) and its image, with y, Zcal y
        # the rows of src; returns f7 of the new point.
        _, th, zth = dst
        np.subtract(omega, src[2], out=th)
        th *= step
        th += src[1]
        np.abs(th, out=gain)
        np.maximum(gain, alpha, out=gain)
        np.divide(alpha, gain, out=gain)
        th *= gain
        np.matmul(zcal, th, out=zth)
        np.subtract(two_omega, zth, out=resid)
        return float(np.vdot(th, resid).real)

    np.subtract(two_omega, cur[2], out=resid)
    f = float(np.vdot(cur[1], resid).real)
    t = 1.0
    trace = [f]
    for _ in range(max_iter):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        rows = ext[0]
        np.subtract(cur[0], prv[0], out=rows)
        rows *= beta
        rows += cur[0]
        f_cand = step_from(ext, nxt)
        if f_cand < f and beta > 0.0:
            # Momentum overshot: restart from the plain projected step.
            t_next = 1.0
            f_cand = step_from(cur, nxt)
        prv, cur, nxt = cur, nxt, prv
        f, t = f_cand, t_next
        trace.append(f)
        if abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
            break
    return cur[1].copy(), trace


def qcr_solve(theta0, data: CmcQpData, tol: float = 1e-10, max_iter: int = 5000):
    """Disc relaxation followed by projection onto the modulus circle.

    Returns (theta, theta_relaxed, trace). The relaxed point can sit inside
    the discs, so both it and the circle projection are reported; downstream
    rate evaluation uses the feasible (projected) vector.
    """
    relaxed, trace = qcr_relax(theta0, data, tol=tol, max_iter=max_iter)
    alpha = _alpha_of(theta0)
    projected = np.where(relaxed != 0, alpha * np.exp(1j * np.angle(relaxed)), theta0)
    return projected, relaxed, trace


# The mixing loop stops after a sweep that gains at most _MIX_TOL relative, or
# after _MIX_SWEEPS; the bound is certified closed at _GAP_TOL relative.
_MIX_TOL = 1e-10
_MIX_SWEEPS = 1000
_GAP_TOL = 1e-6


def _mixing(zhat: np.ndarray, alpha: float, rng: np.random.Generator):
    """max Tr(zhat X) s.t. X_ii = alpha^2, X >= 0 over X = V V^H, V n x p.

    The mixing method (Wang, Chang & Kolter, arXiv:1706.00476): each visit
    sets row v_i <- alpha g / |g|, g = sum_{j != i} zhat_ij v_j, its exact
    maximizer. p = ceil(sqrt(2n)) + 1, so p^2 > n, which rules out spurious
    local optima for generic complex instances (Boumal, Voroninski &
    Bandeira 2016). Rows start from rng with norm alpha and keep it.

    Returns (V, value, bound): value = Tr(zhat V V^H) = alpha^2 sum_i y_i
    with y_i = Re(zhat V V^H)_ii / alpha^2, and bound = value + alpha^2 n
    max(0, -lambda_min(Diag(y) - zhat)), the dual value of y shifted to
    feasibility: an upper bound on the SDP for any V, tight at the optimum.
    """
    n = zhat.shape[0]
    p = math.ceil(math.sqrt(2 * n)) + 1
    v = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    v *= alpha / np.linalg.norm(v, axis=1, keepdims=True)
    off = zhat.copy()
    np.fill_diagonal(off, 0.0)
    rows, vrows = list(off), list(v)
    value = float(np.vdot(v, zhat @ v).real)
    for _ in range(_MIX_SWEEPS):
        gain = 0.0
        for row, vi in zip(rows, vrows):
            g = row @ v
            norm = math.sqrt(np.vdot(g, g).real)
            if norm == 0.0:
                continue
            # Tr(zhat V V^H) moves by 2 Re<new - v_i, g>, |new| = |v_i|.
            gain += 2.0 * (alpha * norm - np.vdot(vi, g).real)
            np.multiply(g, alpha / norm, out=vi)
        value += gain
        if gain <= _MIX_TOL * max(1.0, abs(value)):
            break
    y = np.einsum("ij,ij->i", v.conj(), zhat @ v).real / alpha**2
    value = alpha**2 * float(y.sum())
    lam = float(np.linalg.eigvalsh(np.diag(y) - zhat)[0])
    return v, value, value + alpha**2 * n * max(0.0, -lam)


def sdr_solve(data: CmcQpData, alpha: float, n_randomizations: int = 200, *,
              rng: np.random.Generator):
    """Semidefinite relaxation of the homogenized problem plus rounding.

    On theta_hat = [theta; alpha], theta_hat^H Zbar theta_hat = f7(theta)
    for Zbar = [[-Zcal, omega / alpha], [omega^H / alpha, 0]], and Zhat =
    Zbar - lambda_min(Zbar) I is PSD and differs from it by a constant on
    the feasible set. max Tr(Zhat X) s.t. X_ii = alpha^2, X >= 0 is solved
    on a factor X = V V^H by ``_mixing`` from ``rng``. The rounding
    candidates are V's top left singular vector and V zeta for standard
    complex Gaussian zeta in C^p (V zeta ~ CN(0, X) up to a scale); each is
    scored by f7 at its projection (phases relative to its last entry,
    modulus alpha) in ``eval_f7``'s form, and the best projection is kept.

    Returns (theta, sdp_value, converged): sdp_value is the certified upper
    bound on the SDP, hence on the lifted value of any feasible theta;
    converged says the bound is within 1e-6 relative of the factor's value.
    """
    nn = data.omega.size
    if nn == 0:
        return np.zeros(0, complex), 0.0, True
    nbar = nn + 1
    zbar = np.zeros((nbar, nbar), complex)
    zbar[:nn, :nn] = -data.zcal
    zbar[:nn, nn] = data.omega / alpha
    zbar[nn, :nn] = data.omega.conj() / alpha
    zhat = zbar - float(np.linalg.eigvalsh(zbar)[0]) * np.eye(nbar)

    v, value, bound = _mixing(zhat, alpha, rng)
    zeta = rng.standard_normal((2, v.shape[1], max(0, n_randomizations)))
    lead = np.linalg.svd(v, full_matrices=False)[0][:, :1]
    cands = np.concatenate([lead, v @ (zeta[0] + 1j * zeta[1])], axis=1)
    ref = cands[nn]
    thetas = alpha * np.exp(1j * np.angle(cands[:nn] * np.where(ref != 0, ref.conj(), 1.0)))
    resid = 2.0 * data.omega[:, None] - data.zcal @ thetas
    scores = np.einsum("ij,ij->j", thetas.conj(), resid).real
    theta = thetas[:, int(np.argmax(scores))]
    return theta, bound, bound - value <= _GAP_TOL * max(1.0, abs(bound))


def discrete_sweep(theta0, data: CmcQpData, levels: int, max_sweeps: int = 200):
    """Per-coordinate exhaustive search over the discrete phase set.

    Each visit keeps the best of the ``levels`` grid phases by
    cos(eta_i - phi), breaking exact ties toward the lower grid index. Sweeps
    repeat until one leaves f7 unchanged; a sweep that changes no coordinate
    does so exactly. Returns (theta, sweeps_used).
    """
    if levels < 2:
        raise ValueError("discrete phase set needs at least 2 levels")
    alpha = _alpha_of(theta0)
    theta, trace = _ascend(theta0, data, _grid_rule(alpha, levels), 0.0, max_sweeps)
    return theta, len(trace) - 1
