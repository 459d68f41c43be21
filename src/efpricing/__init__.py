"""Envy-free pricing for unit-demand markets with one item per consumer.

The pipeline: find a revenue-optimal allocation as a maximum-weight
perfect matching, reorder the valuation matrix by that allocation, build
the utility-gap matrix, and raise buyer utilities to their minimal stable
fixed point; prices are the winning valuations minus those utilities.
"""

from .core import (
    Allocation,
    InstanceTooLargeError,
    ReorderedValuation,
    UtilityGapMatrix,
    ValuationMatrix,
    build_gap_matrix,
    check_cycle_nonpositivity,
    reorder,
)
from .instance import (
    ParseError,
    SolutionRecord,
    generate,
    parse,
    read_instance,
    read_solution,
    serialize,
    write_instance,
    write_solution,
)
from .matching import MatchingResult, brute_force_assignment, solve_assignment
from .pricing import (
    NonOptimalAllocation,
    PriceVector,
    UtilityVector,
    iterate_once,
    minimality_certificate,
    prices_bellman_ford,
    prices_efpm,
)
from .verify import EnvyReport, brute_force_max_revenue, check_envy_free, raisable_consumers

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "EnvyReport",
    "InstanceTooLargeError",
    "MatchingResult",
    "NonOptimalAllocation",
    "ParseError",
    "PriceVector",
    "ReorderedValuation",
    "SolutionRecord",
    "UtilityGapMatrix",
    "UtilityVector",
    "ValuationMatrix",
    "brute_force_assignment",
    "brute_force_max_revenue",
    "build_gap_matrix",
    "check_cycle_nonpositivity",
    "check_envy_free",
    "generate",
    "iterate_once",
    "minimality_certificate",
    "parse",
    "prices_bellman_ford",
    "prices_efpm",
    "raisable_consumers",
    "read_instance",
    "read_solution",
    "reorder",
    "serialize",
    "solve_assignment",
    "write_instance",
    "write_solution",
    "__version__",
]
