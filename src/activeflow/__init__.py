"""Pseudo-spectral solver and verification harness for a non-local
advection-diffusion model of active particles on the periodic box (0, 2*pi)^3.
"""

from .grid import (
    ConstantData,
    Field3,
    GridSpec,
    InitialDataSpec,
    Params,
    RandomBandlimitedData,
    SingleModeData,
    check_admissible,
    make_grid,
    make_initial,
)
from .spectral import (
    forward,
    inverse,
    poincare_constant,
)
from .dynamics import (
    RescaledSlice,
    Trajectory,
    cfl_dt,
    rescale_ell,
    rescale_field,
    rhs,
    run,
    step_imex,
)
from .diagnostics import (
    DiagnosticsRecord,
    TruncationLadder,
    fit_decay_rate,
    lp_ladder,
    truncation_energy,
    truncation_energy_rescaled,
)
from .equilibrium import (
    EquilibriumReport,
    kappa,
    peclet_threshold,
    solve_stationary,
    spatial_average_decay,
    stationary_residual,
    verify_small_pe_decay,
)
from .oracle import (
    dense_poincare,
    exact_linear_solution,
    fd_rhs,
    fd_run,
)
from .config import RunConfig, load_config

__version__ = "0.1.0"
