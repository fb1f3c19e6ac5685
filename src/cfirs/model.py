"""Domain types, the effective channel, and exact SINR / sum-rate evaluation.

All base stations jointly serve every user through a central processor, so
per-user signal and interference combine coherently across base stations.
The solver core holds every channel and precoder stacked over base stations
(and reflecting surfaces): the effective channel H = [Hs_1 ... Hs_K] and the
precoders W = [Ws_1 ... Ws_K] are (L*m_b, K, m_u) arrays. The channels come
in as a ``channel.ChannelSet``, which carries its own stacked arrays (d, g,
s), and ``pipeline.joint_optimize`` returns W as it holds it, in a
``BeamformerSet``.
The per-user link matrices are the blocks B[k, i] = Hs_k^H Ws_i of H^H W and

    V_k    = sum_{i != k} B[k,i] B[k,i]^H + sigma2 * I     (interference+noise)
    Vbar_k = V_k + B[k,k] B[k,k]^H                          (full covariance)

The SINR matrix is kept in the Hermitian PSD orientation
Gamma_k = B[k,k]^H V_k^{-1} B[k,k]; log det(I + Gamma_k) is unchanged by the
orientation and the Hermitian form keeps every downstream quadratic form PSD.

(B, Vbar) at one (H, W, sigma2) point, with the Cholesky factors of every
user's (Vbar_k, V_k) from one stacked call (the one positive-definiteness
check), is a ``LinkState``. Every reading of it lives here: the rate, the
SINR matrices U and the MMSE filters Y. ``sum_rate`` and ``sinr`` are those
readings composed with ``link_state``, so each formula exists once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSet

# ``BeamformerSet.validate`` rejects a BS over its budget by more than 1e-8
# relative (10x ``tx_opt._POWER_TOL``, for rounding between the two).
_POWER_REL_TOL = 1e-8
_EPS = np.finfo(float).eps


@dataclass
class BeamformerSet:
    """The stacked precoders W = [Ws_1 ... Ws_K] that a solve returns: rows
    l*m_b:(l+1)*m_b of W belong to BS l of the ``l`` base stations."""

    w: np.ndarray  # (L*m_b, K, m_u)
    l: int

    def per_bs_power(self) -> np.ndarray:
        """Transmit power of each base station, sum_k ||W_{l,k}||_F^2."""
        return np.sum(np.abs(self.w.reshape(self.l, -1)) ** 2, axis=1)

    def validate(self, p_max) -> None:
        power = self.per_bs_power()
        limit = np.asarray(p_max, float)
        if (power > limit * (1.0 + _POWER_REL_TOL)).any():
            raise ValueError(f"per-BS power {power} exceeds budget {limit}")


@dataclass
class PhaseVector:
    """Concatenated reflection coefficients, IRS-major, all of modulus alpha."""

    theta: np.ndarray  # (R*N,)
    alpha: float = 1.0

    def validate(self, discrete_levels: int = 0, tol: float = 1e-12) -> None:
        mags = np.abs(self.theta)
        if mags.size and np.max(np.abs(mags - self.alpha)) > tol:
            raise ValueError("reflection coefficients must have modulus alpha")
        if discrete_levels > 0 and self.theta.size:
            phases = np.angle(self.theta / self.alpha) % (2 * np.pi)
            grid = 2 * np.pi / discrete_levels
            offset = phases / grid
            dist = np.abs(offset - np.round(offset)) * grid
            if np.max(dist) > tol:
                raise ValueError("phases must lie on the discrete grid")


def effective_channel(channels: ChannelSet, theta) -> np.ndarray:
    """Stacked effective channels H = D + S^H diag(theta*) G, (L*m_b, K, m_u).

    ``theta`` None drops the reflected term (H is then ``channels.d``).
    """
    if theta is None:
        return channels.d
    k, mu = channels.d.shape[1:]
    reflected = channels.s.conj().T @ (np.conj(theta)[:, None] * channels.g.reshape(-1, k * mu))
    return channels.d + reflected.reshape(channels.d.shape)


def per_user(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """[Xs_1 M_1 ... Xs_K M_K] for a stacked (rows, K, m_u) array x and one
    m_u x m_u matrix M_k per user: one batched product over the users."""
    return (x.transpose(1, 0, 2) @ m).transpose(1, 0, 2)


def link_matrices(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """B[k, i] = Hs_k^H Ws_i, the coherent per-user link matrices: the
    blocks of the one product H^H W."""
    k, mu = h.shape[1:]
    b = h.reshape(len(h), -1).conj().T @ w.reshape(len(w), -1)
    return b.reshape(k, mu, k, mu).transpose(0, 2, 1, 3)


def noise_plus_interference(b: np.ndarray, sigma2: float):
    """(V, Vbar) per user from the link matrices; both Hermitian PD."""
    K, _, Mu, _ = b.shape
    gram = np.einsum("kiuv,kiwv->kiuw", b, b.conj())  # B[k,i] B[k,i]^H
    vbar = gram.sum(axis=1) + sigma2 * np.eye(Mu)
    v = vbar - gram[np.arange(K), np.arange(K)]
    return v, vbar


class LinkState(NamedTuple):
    """Link matrices, full covariances and the Cholesky factors of both
    covariances of every user at one (H, W)."""

    b: np.ndarray     # (K, K, m_u, m_u), B[k, i]
    vbar: np.ndarray  # (K, m_u, m_u), full receive covariance
    chol: np.ndarray  # (2, K, m_u, m_u), lower factors of (Vbar_k, V_k)


def link_state(h: np.ndarray, w: np.ndarray, sigma2: float) -> LinkState:
    """(B, Vbar) and the factors of (Vbar, V) at one (H, W, sigma2) point.

    Refuses a point where sigma2 is below eps * max_k max diag Vbar_k, the
    rounding of the largest receive power: V_k has lost its noise term there,
    and rounding decides whether it factors and at what rate. Over 20 desk
    draws that ratio read 0.02-0.50 at c0 = 1e5 and 2.1-50 at c0 = 1e6.
    """
    b = link_matrices(h, w)
    v, vbar = noise_plus_interference(b, sigma2)
    chol = _cholesky(vbar, v)
    power = np.diagonal(vbar, axis1=-2, axis2=-1).real
    if sigma2 < _EPS * power.max():
        k = int(power.max(axis=1).argmax())
        raise np.linalg.LinAlgError(
            f"noise power {sigma2:g} of user {k} is below the rounding of its receive power")
    return LinkState(b=b, vbar=vbar, chol=chol)


_COVARIANCES = ("receive covariance", "interference covariance")


def _cholesky(vbar: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of (Vbar_k, V_k) for every user, one stacked
    call; names the first user, and which of its covariances, that is not
    positive definite (indefinite, singular or not finite)."""
    cov = np.stack((vbar, v))
    # LAPACK passes a NaN through without an error.
    if np.isfinite(cov).all():
        try:
            return np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            pass
    k, j = next((k, j) for k in range(cov.shape[1]) for j in range(2) if not _is_pd(cov[j, k]))
    raise np.linalg.LinAlgError(f"{_COVARIANCES[j]} of user {k} is not positive definite")


def _is_pd(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(a).all())


def link_sinr(link: LinkState) -> np.ndarray:
    """Per-user SINR matrices Gamma_k = B_k^H V_k^{-1} B_k (Hermitian PSD):
    Gamma_k = Z_k^H Z_k for Z_k = L_k^{-1} B_k, with V_k = L_k L_k^H
    factored by ``link_state``; one stacked solve over the users."""
    k = np.arange(link.b.shape[0])
    z = np.linalg.solve(link.chol[1], link.b[k, k])
    return z.conj().transpose(0, 2, 1) @ z


def mmse_filters(link: LinkState) -> np.ndarray:
    """The MMSE receive filters Y_k = Vbar_k^{-1} B_k of one link state, one
    stacked solve over the users."""
    k = np.arange(link.b.shape[0])
    return np.linalg.solve(link.vbar, link.b[k, k])


def sinr(h: np.ndarray, w: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-user SINR matrices at (H, W): ``link_sinr`` of ``link_state``."""
    return link_sinr(link_state(h, w, sigma2))


def link_rate(link: LinkState) -> float:
    """Achievable sum rate in nats, sum_k [log det Vbar_k - log det V_k],
    with log det A = 2 sum log diag L for A = L L^H read off the factors.
    Base-2 conversion happens only at reporting boundaries."""
    logdiag = np.log(np.diagonal(link.chol, axis1=-2, axis2=-1).real)
    return float(2.0 * np.sum(logdiag[0] - logdiag[1]))


def sum_rate(channels: ChannelSet, w: np.ndarray, theta, sigma2: float) -> float:
    """Sum rate in nats at (W, theta): ``link_rate`` at the effective channel."""
    return link_rate(link_state(effective_channel(channels, theta), w, sigma2))


def matched_filter_init(h: np.ndarray, p_max) -> np.ndarray:
    """Matched-filter start: W = H with the rows of BS l scaled by c_l, each
    BS at full power, split evenly across users."""
    p_max = np.asarray(p_max, float)
    rows = h.reshape(p_max.size, -1)
    norm2 = np.sum(np.abs(rows) ** 2, axis=1)
    scale = np.sqrt(np.divide(p_max, norm2, out=np.ones_like(norm2), where=norm2 > 0.0))
    return (rows * scale[:, None]).reshape(h.shape)
