"""Random channel synthesis for the cell-free multi-IRS scenario.

Direct BS-UE links are Rayleigh faded; IRS-related links (BS-IRS and IRS-UE)
are Rician with line-of-sight components built from array steering vectors.
Large-scale path loss enters as an amplitude factor sqrt(gain) so that
received *power* scales with the distance-dependent gain.

``ChannelSet`` is the one channel type: the sampler and the CSI-error model
fill its per-link blocks, and the solver core reads its stacked arrays.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SystemConfig


@dataclass(frozen=True)
class Geometry:
    """Node placement in meters. Heights (z coordinates) must be positive."""

    bs_positions: np.ndarray     # (L, 3)
    irs_positions: np.ndarray    # (R, 3)
    ue_positions: np.ndarray     # (K, 3)
    ue_center_x: float = 100.0
    ue_radius: float = 10.0

    def validate(self, config: SystemConfig) -> None:
        bs = np.asarray(self.bs_positions, float)
        irs = np.asarray(self.irs_positions, float)
        ue = np.asarray(self.ue_positions, float)
        if bs.shape != (config.l, 3):
            raise ValueError(f"bs_positions must be ({config.l}, 3), got {bs.shape}")
        if irs.shape != (config.r, 3):
            raise ValueError(f"irs_positions must be ({config.r}, 3), got {irs.shape}")
        if ue.shape != (config.k, 3):
            raise ValueError(f"ue_positions must be ({config.k}, 3), got {ue.shape}")
        for name, arr in (("bs", bs), ("irs", irs), ("ue", ue)):
            if arr.size and (arr[:, 2] <= 0).any():
                raise ValueError(f"{name} heights must be strictly positive")


@dataclass(frozen=True)
class SteeringAngles:
    """Per-node angles (radians) used to form the line-of-sight components."""

    bs_departure: np.ndarray            # (L,)
    ue_arrival: np.ndarray              # (K,)
    irs_azimuth_arrival: np.ndarray     # (R,)
    irs_elevation_arrival: np.ndarray   # (R,)
    irs_azimuth_departure: np.ndarray   # (R,)
    irs_elevation_departure: np.ndarray # (R,)

    def validate(self, config: SystemConfig) -> None:
        fields = [
            ("bs_departure", self.bs_departure, config.l),
            ("ue_arrival", self.ue_arrival, config.k),
            ("irs_azimuth_arrival", self.irs_azimuth_arrival, config.r),
            ("irs_elevation_arrival", self.irs_elevation_arrival, config.r),
            ("irs_azimuth_departure", self.irs_azimuth_departure, config.r),
            ("irs_elevation_departure", self.irs_elevation_departure, config.r),
        ]
        for name, arr, length in fields:
            a = np.asarray(arr, float)
            if a.shape != (length,):
                raise ValueError(f"{name} must have shape ({length},)")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
        for name in ("irs_elevation_arrival", "irs_elevation_departure"):
            a = np.asarray(getattr(self, name), float)
            if a.size and ((a < 0) | (a >= np.pi)).any():
                raise ValueError(f"{name} must lie in [0, pi)")


@dataclass(frozen=True)
class ChannelSet:
    """One realization of the three channel families, per link and stacked.

    direct[l, k]  : (m_b, m_u)  BS l -> UE k
    irs_ue[r, k]  : (n, m_u)    IRS r -> UE k
    bs_irs[l, r]  : (n, m_b)    BS l -> IRS r

    The solver core reads the same channels stacked over BSs and IRSs:

    d : (L*m_b, K, m_u)   d[:, k] = Ds_k, the direct channels of user k
                          stacked over BSs
    g : (R*N, K, m_u)     g[:, k] = Gs_k, the IRS->UE channels of user k
                          stacked over IRSs
    s : (R*N, L*m_b)      s[r*N:(r+1)*N, l*m_b:(l+1)*m_b] = bs_irs[l, r]

    An (L*m_b, K, m_u) array reshaped to (L*m_b, K*m_u) is the paper's
    [Xs_1 ... Xs_K]; the effective channel H and the precoders W are held
    the same way as d. Each stacked array is formed on first use and kept,
    so a ``ChannelSet`` is treated as immutable: its arrays are never
    written after construction.
    """

    direct: np.ndarray
    irs_ue: np.ndarray
    bs_irs: np.ndarray

    @cached_property
    def d(self) -> np.ndarray:
        L, K, Mb, Mu = self.direct.shape
        return self.direct.transpose(0, 2, 1, 3).reshape(L * Mb, K, Mu)

    @cached_property
    def g(self) -> np.ndarray:
        R, K, N, Mu = self.irs_ue.shape
        return self.irs_ue.transpose(0, 2, 1, 3).reshape(R * N, K, Mu)

    @cached_property
    def s(self) -> np.ndarray:
        L, R, N, Mb = self.bs_irs.shape
        return self.bs_irs.transpose(1, 2, 0, 3).reshape(R * N, L * Mb)

    def validate(self, config: SystemConfig) -> None:
        want = {
            "direct": (config.l, config.k, config.m_b, config.m_u),
            "irs_ue": (config.r, config.k, config.n, config.m_u),
            "bs_irs": (config.l, config.r, config.n, config.m_b),
        }
        for name, shape in want.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")


def path_loss(distance: float, exponent: float, c0: float) -> float:
    """Distance-dependent large-scale gain c0 * distance^(-exponent), with
    c0 the gain at 1 m.

    Returned value is a linear *power* gain; callers apply sqrt() of it as an
    amplitude on channel matrices.
    """
    if distance <= 0:
        raise ValueError("distance must be positive")
    if exponent < 0:
        raise ValueError("path loss exponent must be >= 0")
    return c0 * distance ** (-exponent)


def ula_steering(angle: float, m: int) -> np.ndarray:
    """Steering vector of an m-element half-wavelength uniform linear array."""
    if m < 1:
        raise ValueError("antenna count must be >= 1")
    return np.exp(1j * np.pi * np.arange(m) * np.sin(angle))


def upa_steering(azimuth: float, elevation: float, n_v: int, n_h: int) -> np.ndarray:
    """Steering vector of an n_v x n_h uniform planar array.

    Kronecker product of the vertical factor exp(j*pi*i*sin(az)*sin(el)) and
    the horizontal factor exp(j*pi*i*cos(el)); length n_v * n_h, all elements
    unit modulus.
    """
    if n_v < 1 or n_h < 1:
        raise ValueError("array dimensions must be >= 1")
    a_v = np.exp(1j * np.pi * np.arange(n_v) * np.sin(azimuth) * np.sin(elevation))
    a_h = np.exp(1j * np.pi * np.arange(n_h) * np.cos(elevation))
    return np.kron(a_v, a_h)


def _crandn(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian entries, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


# Rician factors at or above this are treated as the pure line-of-sight limit.
RICIAN_INFINITE = 1e9


def _rician_mix(beta: float, los: np.ndarray, nlos: np.ndarray) -> np.ndarray:
    if beta >= RICIAN_INFINITE:
        return los.astype(complex)
    return np.sqrt(beta / (1.0 + beta)) * los + np.sqrt(1.0 / (1.0 + beta)) * nlos


def sample_channels(
    config: SystemConfig,
    geometry: Geometry,
    angles: SteeringAngles,
    rng: np.random.Generator,
) -> ChannelSet:
    """Draw one channel realization.

    Deterministic for a fixed generator state; draw order is direct, then
    IRS->UE, then BS->IRS, each index-major.
    """
    geometry.validate(config)
    angles.validate(config)
    L, K, R = config.l, config.k, config.r
    Mb, Mu, N = config.m_b, config.m_u, config.n
    bs = np.asarray(geometry.bs_positions, float)
    irs = np.asarray(geometry.irs_positions, float)
    ue = np.asarray(geometry.ue_positions, float)

    direct = np.zeros((L, K, Mb, Mu), complex)
    for l in range(L):
        for k in range(K):
            d = np.linalg.norm(bs[l] - ue[k])
            amp = np.sqrt(path_loss(d, config.pathloss_direct, config.c0))
            direct[l, k] = amp * _crandn(rng, (Mb, Mu))

    irs_ue = np.zeros((R, K, N, Mu), complex)
    for r in range(R):
        a_dep = upa_steering(
            angles.irs_azimuth_departure[r], angles.irs_elevation_departure[r],
            config.n_v, config.n_h,
        )
        for k in range(K):
            d = np.linalg.norm(irs[r] - ue[k])
            amp = np.sqrt(path_loss(d, config.pathloss_irs, config.c0))
            a_ue = ula_steering(angles.ue_arrival[k], Mu)
            los = np.outer(a_dep, a_ue.conj())
            irs_ue[r, k] = amp * _rician_mix(config.beta_g, los, _crandn(rng, (N, Mu)))

    bs_irs = np.zeros((L, R, N, Mb), complex)
    for l in range(L):
        a_bs = ula_steering(angles.bs_departure[l], Mb)
        for r in range(R):
            d = np.linalg.norm(bs[l] - irs[r])
            amp = np.sqrt(path_loss(d, config.pathloss_irs, config.c0))
            a_arr = upa_steering(
                angles.irs_azimuth_arrival[r], angles.irs_elevation_arrival[r],
                config.n_v, config.n_h,
            )
            los = np.outer(a_arr, a_bs.conj())
            bs_irs[l, r] = amp * _rician_mix(config.beta_s, los, _crandn(rng, (N, Mb)))

    return ChannelSet(direct=direct, irs_ue=irs_ue, bs_irs=bs_irs)


def apply_csi_error(
    channels: ChannelSet, rho: float, rng: np.random.Generator
) -> ChannelSet:
    """Return estimated channels under the bounded error model.

    Each true matrix H is written H = H_hat + Delta with ||Delta||_F bounded
    by rho * ||H_hat||_F: H_hat = H - E with E Gaussian in direction and of
    Frobenius norm rho/(1+rho) * ||H||_F, so the bound follows from the
    triangle inequality. Each family's errors are drawn in one call, block
    by block in index order, real parts before imaginary parts. rho = 0
    returns ``channels`` itself, stacked arrays included, after the same
    draws, so the generator advances alike and sweeps over rho stay paired.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    families = (channels.direct, channels.irs_ue, channels.bs_irs)
    draws = [rng.standard_normal((*f.shape[:2], 2, *f.shape[2:])) for f in families]
    if rho == 0:
        return channels
    estimates = []
    for blocks, z in zip(families, draws):
        delta = (z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0)
        norm_m = np.linalg.norm(blocks, axis=(2, 3))
        norm_d = np.linalg.norm(delta, axis=(2, 3))
        # A zero block, or a zero draw, is left as it is.
        live = (norm_m > 0.0) & (norm_d > 0.0)
        radius = rho / (1.0 + rho) * norm_m
        scale = np.divide(radius, norm_d, out=np.zeros_like(radius), where=live)
        estimates.append(blocks - delta * scale[:, :, None, None])
    return ChannelSet(*estimates)


def default_geometry(
    config: SystemConfig, ue_center_x: float = 100.0, ue_radius: float = 10.0
) -> Geometry:
    """Reference 3-D layout: BSs on a line at y=0 (3 m high), IRSs on the
    y=100 m line (6 m high) around x=100 m, UEs in a disc at (x, 100, 1.5).

    UE positions are placed at the disc center; callers draw per-realization
    positions with :func:`sample_ue_positions`.
    """
    L, R, K = config.l, config.r, config.k
    bs_x = np.linspace(0.0, 200.0, L) if L > 1 else np.array([100.0])
    bs = np.column_stack([bs_x, np.zeros(L), np.full(L, 3.0)])
    irs_x = np.linspace(50.0, 150.0, R) if R > 1 else np.full(max(R, 1), 100.0)[:R]
    irs = np.column_stack([irs_x, np.full(R, 100.0), np.full(R, 6.0)])
    ue = np.column_stack(
        [np.full(K, ue_center_x), np.full(K, 100.0), np.full(K, 1.5)]
    )
    return Geometry(
        bs_positions=bs, irs_positions=irs, ue_positions=ue,
        ue_center_x=ue_center_x, ue_radius=ue_radius,
    )


def sample_ue_positions(geometry: Geometry, rng: np.random.Generator) -> Geometry:
    """Resample UE positions uniformly in the disc around (ue_center_x, 100)."""
    ue = np.asarray(geometry.ue_positions, float).copy()
    k = ue.shape[0]
    radii = geometry.ue_radius * np.sqrt(rng.uniform(0.0, 1.0, k))
    phases = rng.uniform(0.0, 2.0 * np.pi, k)
    ue[:, 0] = geometry.ue_center_x + radii * np.cos(phases)
    ue[:, 1] = 100.0 + radii * np.sin(phases)
    return dataclasses.replace(geometry, ue_positions=ue)


def sample_angles(config: SystemConfig, rng: np.random.Generator) -> SteeringAngles:
    """Draw steering angles: azimuths uniform in [0, 2pi), elevations in [0, pi)."""
    return SteeringAngles(
        bs_departure=rng.uniform(0.0, 2.0 * np.pi, config.l),
        ue_arrival=rng.uniform(0.0, 2.0 * np.pi, config.k),
        irs_azimuth_arrival=rng.uniform(0.0, 2.0 * np.pi, config.r),
        irs_elevation_arrival=rng.uniform(0.0, np.pi, config.r),
        irs_azimuth_departure=rng.uniform(0.0, 2.0 * np.pi, config.r),
        irs_elevation_departure=rng.uniform(0.0, np.pi, config.r),
    )
