"""Scenario configuration for the cell-free multi-IRS downlink."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace


def db2lin(x_db: float) -> float:
    """Convert a dB power ratio to linear scale."""
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """All scenario dimensions, powers, and solver tolerances.

    Dimensions: ``l`` base stations with ``m_b`` antennas each, ``k`` user
    equipments with ``m_u`` antennas each, ``r`` reflecting surfaces with
    ``n = n_h * n_v`` elements each.  ``r = 0`` encodes the IRS-free baseline.

    Physical defaults follow the usual link-budget conventions: ``c0`` is the
    linear power gain at 1 m, ``sigma2`` the noise power in watts, ``beta_g``
    / ``beta_s`` the linear Rician factors of the reflector-related channels,
    ``alpha`` the reflecting efficiency (modulus of every reflection
    coefficient). The size of a discrete phase set belongs to the scheme
    (``SchemeSpec.levels``). Construction rejects NaN in any field, a
    non-integer (or ``bool``) count or cap, an infinite ``sigma2``, ``p_max``
    entry, ``c0`` or ``eps3``, ``c0`` <= 0 and a negative Rician factor or
    path-loss exponent; an infinite Rician factor (pure line of sight) or
    path-loss exponent is kept. ``c0`` is supported up to 1e5 (rates rise
    about 13 bits per decade of it at desk scale); from 1e6 on, rounding
    decides whether a draw fails to factor or returns a rate flat in c0.

    The inner solvers' settings are module constants beside their readers:
    ``tx_opt.EPS1`` = 1e-5 and ``tx_opt.MAX_DUAL`` = 500 (precoder dual),
    ``irs_opt.EPS2`` = 1e-8 (ASO sweeps, relative to the phase objective).
    ``max_aso`` caps only the discrete sweep's sweeps per outer iteration;
    ASO's in-loop cap is ``pipeline.ASO_BUDGET``. It stays a field because
    the benchmark (``perfbench``) prints it for its full-scale workloads.
    """

    l: int
    k: int
    r: int
    m_b: int
    m_u: int
    n: int
    n_h: int
    n_v: int
    alpha: float = 1.0
    p_max: tuple = (0.1,)
    sigma2: float = 1e-11
    beta_g: float = db2lin(3.0)
    beta_s: float = db2lin(3.0)
    c0: float = 1e-3
    pathloss_direct: float = 3.75
    pathloss_irs: float = 2.2
    eps3: float = 1e-4
    max_outer: int = 50
    max_aso: int = 200

    def __post_init__(self):
        for f in fields(self):
            # f.type is the annotation's text (postponed annotations).
            value = getattr(self, f.name)
            if f.type == "int" and (type(value) is bool or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if min(self.l, self.k, self.m_b, self.m_u) < 1:
            raise ValueError("l, k, m_b, m_u must all be >= 1")
        if self.r < 0:
            raise ValueError("r must be >= 0")
        if self.r > 0 and (self.n < 1 or self.n_h < 1 or self.n_v < 1):
            raise ValueError("n, n_h, n_v must be >= 1 when r > 0")
        if self.n != self.n_h * self.n_v:
            raise ValueError(f"n = {self.n} must equal n_h * n_v = {self.n_h * self.n_v}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError("sigma2 must be positive and finite")
        if not 0.0 < self.c0 < math.inf:
            raise ValueError("c0 must be positive and finite")
        # Every float field's range check is written so that NaN fails it.
        if not all(x >= 0.0 for x in (self.beta_g, self.beta_s,
                                      self.pathloss_direct, self.pathloss_irs)):
            raise ValueError("Rician factors and path-loss exponents must be >= 0")
        if not 0.0 <= self.eps3 < math.inf:
            raise ValueError("eps3 must be >= 0 and finite")
        if min(self.max_outer, self.max_aso) < 1:
            raise ValueError("max_outer and max_aso must be >= 1")
        p = self.p_max
        if isinstance(p, (int, float)):
            p = (float(p),) * self.l
        else:
            p = tuple(float(v) for v in p)
            if len(p) == 1:
                p = p * self.l
        if len(p) != self.l:
            raise ValueError(f"p_max needs {self.l} entries, got {len(p)}")
        if not all(0.0 < v < math.inf for v in p):
            raise ValueError("p_max entries must be positive and finite")
        object.__setattr__(self, "p_max", p)

    @property
    def n_irs_total(self) -> int:
        """Total number of reflection coefficients across all surfaces."""
        return self.r * self.n

    def with_(self, **changes) -> "SystemConfig":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)


def desk_config(**overrides) -> SystemConfig:
    """A small default scenario usable on a desk machine.

    Keeps the physical constants of the full-scale setup (powers, noise,
    path-loss exponents, Rician factors) but shrinks the network to a size
    where a full Monte-Carlo sweep runs in minutes.
    """
    base = dict(
        l=3, k=2, r=2, m_b=4, m_u=2, n=16, n_h=4, n_v=4,
        p_max=(0.1,), sigma2=1e-11, c0=1e-3,
    )
    base.update(overrides)
    return SystemConfig(**base)


def full_config(**overrides) -> SystemConfig:
    """The full-scale scenario: 6 BSs with 4 antennas, 4 UEs with 2 antennas
    and 3 reflecting surfaces of 60 (10 x 6) elements, with the physical
    constants of ``desk_config``."""
    base = dict(
        l=6, k=4, r=3, m_b=4, m_u=2, n=60, n_h=10, n_v=6,
        p_max=(0.1,), sigma2=1e-11, c0=1e-3,
    )
    base.update(overrides)
    return SystemConfig(**base)
