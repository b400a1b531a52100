"""Cardinality-constrained mean-CVaR portfolio optimization toolkit.

The package solves min x@x/(2 gamma) + CVaR_beta(loss) over portfolios
supported on at most k assets, exactly, with all convex and combinatorial
machinery in-house. `driver` holds the outer solvers, `lower` the
fixed-selection subproblem, `master` the selection search, `numeric` the
cone-free QP kernel, `ingest` the file formats, `oracle` the enumeration
ground truth, and `cli` the command-line front end.
"""

from .model import (
    Instance,
    Portfolio,
    SelectionVector,
    build_feasible_set,
    compute_mu_bar,
    cvar,
    objective,
)
from .driver import (
    SolveReport,
    extract_portfolio,
    solve_bcp,
    solve_bigm,
    solve_cp,
    theta_lb,
)
from .ingest import (
    MomentData,
    ParseError,
    generate_scenarios,
    parse_orlibrary,
    parse_scenarios,
    write_orlibrary,
    write_scenarios,
)
from .lower import (
    DualCertificate,
    LowerResult,
    solve_lower_cp,
    solve_lower_lifted,
    subgradient,
)
from .oracle import OracleResult, brute_force

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "Portfolio",
    "SelectionVector",
    "build_feasible_set",
    "compute_mu_bar",
    "cvar",
    "objective",
    "SolveReport",
    "extract_portfolio",
    "solve_bcp",
    "solve_bigm",
    "solve_cp",
    "theta_lb",
    "MomentData",
    "ParseError",
    "generate_scenarios",
    "parse_orlibrary",
    "parse_scenarios",
    "write_orlibrary",
    "write_scenarios",
    "DualCertificate",
    "LowerResult",
    "solve_lower_cp",
    "solve_lower_lifted",
    "subgradient",
    "OracleResult",
    "brute_force",
    "__version__",
]
