"""SAR-aware precoding and fluid-antenna position optimization."""

from .channel import (
    ChannelRealization,
    ConfigurationError,
    PathSet,
    Region,
    channel_matrix,
    dbm_to_watts,
    min_pairwise_distance,
    min_weighted_sinr,
    sample_channel,
    sinr_all,
    uniform_line_layout,
)
from .exposure import (
    SarModel,
    identity_sar_model,
    paper_sar_matrix,
    sar_value,
    synthesize_sar_matrix,
)
from .fixed import optimal_precoder
from .solver import (
    DegenerateUserError,
    SinrTargets,
    SolveReport,
    SolverConfig,
    SolverError,
    inner_loop,
    solve_auxiliary,
    solve_precoder,
    solve_sar_min,
)
from .balance import BalanceConfig, BalanceResult, default_upper_bracket, solve_sinr_balance
from .baselines import (
    ApsResult,
    BaselineConfig,
    adaptive_backoff,
    solve_aps,
    solve_fpa,
    solve_without_sar,
)
from .harness import ExperimentPlan, RunRecord, run_sweep

__version__ = "0.1.0"
