"""Random channel synthesis for the cell-free multi-IRS scenario.

One link model covers the three channel families. Every (tx, rx) block is

    sqrt(gain) * (sqrt(beta / (1 + beta)) * LoS + sqrt(1 / (1 + beta)) * G),

with gain the distance path loss (applied as sqrt, so received *power* scales
with it), LoS the outer product of a surface's UPA steering vector and the
conjugated ULA steering vector of the BS or UE, and G i.i.d. unit-variance
complex Gaussian. Direct BS-UE links are the model at beta = 0 (Rayleigh
fading); IRS-UE and BS-IRS links are Rician with ``beta_g`` and ``beta_s``.
Each family's G is one standard-normal draw of shape (tx, rx, 2, rows,
cols), so a realization reads the generator family by family (direct,
IRS->UE, BS->IRS), block by block in index order, real parts before
imaginary parts. The CSI-error model draws its error directions alike.

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


# Rician factors at or above this are treated as the pure line-of-sight limit.
RICIAN_INFINITE = 1e9


def _gaussian_blocks(rng: np.random.Generator, shape) -> np.ndarray:
    """(tx, rx, rows, cols) blocks of G, from one draw of shape (tx, rx, 2, rows, cols)."""
    tx, rx, rows, cols = shape
    z = rng.standard_normal((tx, rx, 2, rows, cols))
    return (z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0)


def _gains(tx_pos, rx_pos, exponent: float, c0: float) -> np.ndarray:
    """(tx, rx) path-loss gains, one scalar ``path_loss`` call per pair: array
    norms and powers round differently in the last bit, and it checks distance."""
    gains = [[path_loss(np.linalg.norm(t - r), exponent, c0) for r in rx_pos] for t in tx_pos]
    return np.array(gains, float).reshape(len(tx_pos), len(rx_pos))


def _upa_rows(azimuths, elevations, config: SystemConfig) -> np.ndarray:
    """(R, N): each surface's UPA steering vector."""
    rows = [upa_steering(az, el, config.n_v, config.n_h) for az, el in zip(azimuths, elevations)]
    return np.reshape(rows, (config.r, config.n))


def _link_family(rng, gain, block, beta: float = 0.0, los=0.0) -> np.ndarray:
    """Every (tx, rx) block of one family, gain.shape + block, by the link
    model, with ``los`` broadcast to it. From ``RICIAN_INFINITE`` on, the
    blocks are the line of sight alone; G is still drawn."""
    g = _gaussian_blocks(rng, gain.shape + block)
    if beta >= RICIAN_INFINITE:
        mix = np.broadcast_to(los, g.shape).astype(complex)
    else:
        mix = np.sqrt(beta / (1.0 + beta)) * los + np.sqrt(1.0 / (1.0 + beta)) * g
    return np.sqrt(gain)[:, :, None, None] * mix


def sample_channels(config: SystemConfig, geometry: Geometry, angles: SteeringAngles,
                    rng: np.random.Generator) -> ChannelSet:
    """Draw one channel realization.

    Deterministic for a fixed generator state; draw order is direct, then
    IRS->UE, then BS->IRS, each index-major.
    """
    geometry.validate(config)
    angles.validate(config)
    bs, irs, ue = (np.asarray(p, float) for p in
                   (geometry.bs_positions, geometry.irs_positions, geometry.ue_positions))
    bs_ula = np.array([ula_steering(a, config.m_b) for a in angles.bs_departure]).conj()
    ue_ula = np.array([ula_steering(a, config.m_u) for a in angles.ue_arrival]).conj()
    irs_dep = _upa_rows(angles.irs_azimuth_departure, angles.irs_elevation_departure, config)
    irs_arr = _upa_rows(angles.irs_azimuth_arrival, angles.irs_elevation_arrival, config)
    pl, c0 = config.pathloss_irs, config.c0
    direct = _link_family(rng, _gains(bs, ue, config.pathloss_direct, c0), (config.m_b, config.m_u))
    irs_ue = _link_family(rng, _gains(irs, ue, pl, c0), (config.n, config.m_u), config.beta_g,
                          irs_dep[:, None, :, None] * ue_ula[None, :, None, :])
    bs_irs = _link_family(rng, _gains(bs, irs, pl, c0), (config.n, config.m_b), config.beta_s,
                          irs_arr[None, :, :, None] * bs_ula[:, None, None, :])
    return ChannelSet(direct=direct, irs_ue=irs_ue, bs_irs=bs_irs)


def apply_csi_error(channels: ChannelSet, rho: float, rng: np.random.Generator) -> ChannelSet:
    """Return estimated channels under the bounded error model.

    Each true matrix H is written H = H_hat + Delta with ||Delta||_F bounded
    by rho * ||H_hat||_F: H_hat = H - E with E Gaussian in direction and of
    Frobenius norm rho/(1+rho) * ||H||_F, so the bound follows from the
    triangle inequality. Each family's error directions are one
    ``_gaussian_blocks`` draw, in the sampler's family order. rho = 0
    returns ``channels`` itself, stacked arrays included, after the same
    draws, so the generator advances alike and sweeps over rho stay paired.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    families = (channels.direct, channels.irs_ue, channels.bs_irs)
    deltas = [_gaussian_blocks(rng, f.shape) for f in families]
    if rho == 0:
        return channels
    estimates = []
    for blocks, delta in zip(families, deltas):
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
