"""Joint active/passive beamforming optimization for multi-IRS cell-free
MIMO downlink, plus a Monte-Carlo experiment harness."""

__version__ = "0.1.0"

from .channel import (
    ChannelSet,
    Geometry,
    SteeringAngles,
    apply_csi_error,
    default_geometry,
    path_loss,
    sample_angles,
    sample_channels,
    sample_ue_positions,
    ula_steering,
    upa_steering,
)
from .config import SystemConfig, desk_config, full_config
from .fp_core import AuxState
from .irs_opt import (
    CmcQpData,
    aso_solve,
    build_cmcqp,
    discrete_sweep,
    eval_f7,
    qcr_solve,
    sdr_solve,
)
from .model import (
    BeamformerSet,
    PhaseVector,
    effective_channel,
    sinr,
    sum_rate,
)
from .pipeline import RunTrace, SchemeSpec, Step, aggregate, joint_optimize, monte_carlo
from .tx_opt import optimize_w
