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

(B, V, Vbar) at one (H, W, sigma2) point is a ``LinkState``: ``link_state``
forms it once, and the rate, the SINR matrices (here) and the MMSE filters
and surrogate terms (``fp_core``) are read off it. ``sum_rate`` and ``sinr``
are those readings composed with ``link_state``, so each formula exists once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSet

# ``BeamformerSet.validate`` rejects a BS over its budget by more than 1e-6 W
# or 1e-8 relative (10x ``tx_opt._POWER_TOL``, for rounding between the two).
_POWER_ABS_TOL = 1e-6
_POWER_REL_TOL = 1e-8


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
        over = (power > limit + _POWER_ABS_TOL) | (power > limit * (1.0 + _POWER_REL_TOL))
        if over.any():
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
    """Link matrices and the two covariances of every user at one (H, W)."""

    b: np.ndarray     # (K, K, m_u, m_u), B[k, i]
    v: np.ndarray     # (K, m_u, m_u), interference plus noise
    vbar: np.ndarray  # (K, m_u, m_u), full receive covariance


def link_state(h: np.ndarray, w: np.ndarray, sigma2: float) -> LinkState:
    """(B, V, Vbar) at one (H, W, sigma2) point."""
    b = link_matrices(h, w)
    v, vbar = noise_plus_interference(b, sigma2)
    return LinkState(b=b, v=v, vbar=vbar)


def link_sinr(link: LinkState) -> np.ndarray:
    """Per-user SINR matrices Gamma_k = B_k^H V_k^{-1} B_k (Hermitian PSD).

    With V_k = L_k L_k^H (Cholesky), Gamma_k = Z_k^H Z_k for Z_k = L_k^{-1} B_k,
    one stacked factorization and one stacked solve over the users.
    """
    k = np.arange(link.v.shape[0])
    z = np.linalg.solve(_cholesky(link.v), link.b[k, k])
    return z.conj().transpose(0, 2, 1) @ z


def _cholesky(v: np.ndarray) -> np.ndarray:
    """Stacked Cholesky factors of the users' interference covariances;
    names the first user whose covariance is not positive definite."""
    try:
        return np.linalg.cholesky(v)
    except np.linalg.LinAlgError as exc:
        for k in range(v.shape[0]):
            try:
                np.linalg.cholesky(v[k])
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"interference covariance of user {k} is not positive definite"
                ) from exc
        raise


def sinr(h: np.ndarray, w: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-user SINR matrices at (H, W): ``link_sinr`` of ``link_state``."""
    return link_sinr(link_state(h, w, sigma2))


# slogdet's sign for a Hermitian PD matrix differs from +1 by rounding only:
# below 1e-15 on the desk and full-scale scenarios.
_SIGN_TOL = 1e-6


def _logdet_hermitian(a: np.ndarray):
    """log det of a Hermitian positive-definite matrix, or of each matrix
    of a stack (one ``slogdet`` call).

    The determinant of a Hermitian matrix is real, so slogdet's sign is +1,
    -1 or 0 up to rounding; anything but +1 means the matrix is not PD and
    its log-determinant would be a wrong rate, so it raises LinAlgError.
    """
    sign, logabs = np.linalg.slogdet(a)
    # A singular matrix comes back with sign 0 (log-determinant -inf); the
    # negated test also rejects a NaN sign.
    bad = ~(np.abs(sign - 1.0) <= _SIGN_TOL)
    if bad.any():
        raise np.linalg.LinAlgError(
            "log-determinant of a matrix that is not positive definite "
            f"(sign {np.asarray(sign)[bad].flat[0]})"
        )
    return logabs


def link_rate(link: LinkState) -> float:
    """Achievable sum rate in nats, sum_k [log det Vbar_k - log det V_k].

    Evaluated through the determinant identity rather than an explicit SINR
    inverse, with one ``slogdet`` over both covariances of every user;
    base-2 conversion happens only at reporting boundaries.
    """
    logdet = _logdet_hermitian(np.stack((link.vbar, link.v)))
    return float(np.sum(logdet[0] - logdet[1]))


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
