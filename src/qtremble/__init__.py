"""Trembling-hand robustness of equilibria in quantized 2x2 games."""

from .distributions import (
    TrembleSpec,
    bessel_i,
    sample_torus_angles,
    sample_vm,
    vm_density,
)
from .games import (
    GameSpec,
    Surface,
    builtin_game,
    classical_equilibria,
    classical_payoff,
    load_game,
)
from .integration import (
    GridResolutionError,
    QuadratureGrid,
    StrategyDistribution,
    default_grid,
    discrete_mixture_payoff,
    payoff_surface,
    smeared_payoff,
    smeared_payoff_direct,
    smeared_payoff_mc,
)
from .quantum import (
    StrategyParams,
    bell_projectors,
    expected_payoff,
    final_state,
    gate_distance,
    initial_state,
    payoff_operators,
    strategy,
    su2,
    su2_angles,
)
from .thp import (
    BestResponse,
    NoBracketError,
    RobustnessVerdict,
    ThresholdResult,
    best_response,
    check_equilibrium,
    classical_thp_check,
    thp_scan,
    threshold_search,
)

__version__ = "0.1.0"
