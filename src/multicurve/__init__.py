"""Multi-curve HJM term-structure modelling.

OIS discount curves, multiplicative Libor-OIS spread curves, an HJM engine
with Levy drivers and spot-spread consistency, affine short-rate/spread
specifications with Riccati transforms and Fourier caplet pricing, a
moment-problem construction of spread-consistent jump kernels, Black-76
calibration utilities, and a CLI.
"""

__version__ = "0.1.0"

from .termstructure import (  # noqa: F401
    DiscountCurve,
    MarketQuoteSet,
    OisSwapQuote,
    SpreadQuote,
    SpreadTermStructure,
    Tenor,
    bootstrap_ois_curve,
    bootstrap_spread_curve,
    fra_rate,
    fra_rate_from_curves,
)

from .termstructure import (  # noqa: F401
    ExtrapolationDisabled,
    NegativeSpreadWarning,
    NoSolution,
    NonIncreasingMaturities,
)
from .products import (  # noqa: F401
    EmptyPathSet,
    MaturityNotCovered,
    PathSet,
    ProductSpec,
    basis_swap_spread,
    caplet_price_mc,
    fra_value,
    irs_swap_rate,
    irs_value,
    ois_swap_rate,
    ois_swap_value,
    swaption_price_mc,
)
from .hjm import (  # noqa: F401
    ExponentialVolatility,
    GridMismatch,
    HjmSimulationResult,
    LevyHjmModel,
    LevyTriplet,
    SimulationAborted,
    StateDependentVolatility,
    consistency_residual,
    ois_drift,
    simulate_hjm,
    spread_drift,
    spread_drift_adjustment,
)
from .momentkernel import (  # noqa: F401
    FeasibilityReport,
    JumpKernel,
    KernelFamily,
    KernelInfeasible,
    KernelResidualError,
    MomentTargets,
    YperpPaths,
    feasibility_check,
    kernel_moment_residual,
    simulate_yperp,
    solve_jump_kernel,
)
from .affine import (  # noqa: F401
    AffineJumps,
    AffineModelSpec,
    DampingOutOfDomain,
    InadmissibleSpec,
    QuadratureNonConvergence,
    RiccatiAccuracyError,
    RiccatiExplosion,
    ShiftedCurves,
    affine_bond,
    affine_spread,
    caplet_price_fourier,
    shifted_curves,
    simulate_affine,
)
from .calibration import (  # noqa: F401
    BlackDomainError,
    CalibrationResult,
    MaxIterations,
    ObjectiveNaN,
    PriceOutOfBounds,
    VolQuote,
    VolQuoteSurface,
    black_caplet,
    black_implied_vol,
    calibrate,
)
from .marketio import (  # noqa: F401
    SchemaError,
    calibration_result_from_dict,
    calibration_result_to_dict,
    curve_plot_rows,
    forward_spread_rate_rows,
    load_curve_json,
    load_kernel_json,
    load_model_json,
    load_product_json,
    load_quotes_csv,
    load_report_json,
    load_targets_json,
    load_vol_surface_csv,
    pricing_report,
    save_curve_json,
    save_kernel_json,
    save_model_json,
    save_plot_csv,
    save_product_json,
    save_quotes_csv,
    save_report_json,
    save_vol_surface_csv,
    simulation_provenance,
)
