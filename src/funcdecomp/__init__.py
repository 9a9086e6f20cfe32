"""Additive decomposition of functions of several real arguments: Shapley
allocation on games, sequential and averaged-sequential attribution, the
delta-star extension for functions with a non-zero origin value, and
executable checks of the axiom systems behind them."""

from .core import (
    EXACT_PERMUTATION_CAP,
    EXACT_SUBSET_CAP,
    DimensionMismatchError,
    NonFiniteCoordinateError,
    NonzeroOriginError,
    as_point,
    permutation_from_ranks,
    permute,
    project,
)
from .decomp import (
    DecompositionResult,
    as_permutation,
    as_subset,
    delta_star,
    pointwise_shapley,
    sequential,
)
from .expr import (
    CoordinateMap,
    EvaluationError,
    ExpressionFunction,
    FunctionHandle,
    NativeFunction,
    OddPowerMap,
    ParseError,
    PiecewiseLinearMap,
    ScaleMap,
    TableFunction,
    compose_coordinate_maps,
    compose_permutation,
    linear_combine,
    parse,
)
from .game import (
    Allocation,
    Game,
    GameFormatError,
    game_from_binary_function,
    game_from_json,
    induced_game,
    shapley,
    shapley_permutation_oracle,
)
from .montecarlo import EstimatorReport, estimate_as, estimate_delta_star

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "CoordinateMap",
    "DecompositionResult",
    "DimensionMismatchError",
    "EstimatorReport",
    "EvaluationError",
    "ExpressionFunction",
    "FunctionHandle",
    "Game",
    "GameFormatError",
    "NativeFunction",
    "NonFiniteCoordinateError",
    "NonzeroOriginError",
    "OddPowerMap",
    "ParseError",
    "PiecewiseLinearMap",
    "ScaleMap",
    "TableFunction",
    "EXACT_PERMUTATION_CAP",
    "EXACT_SUBSET_CAP",
    "as_permutation",
    "as_point",
    "as_subset",
    "compose_coordinate_maps",
    "compose_permutation",
    "delta_star",
    "estimate_as",
    "estimate_delta_star",
    "game_from_binary_function",
    "game_from_json",
    "induced_game",
    "linear_combine",
    "parse",
    "permutation_from_ranks",
    "permute",
    "pointwise_shapley",
    "project",
    "sequential",
    "shapley",
    "shapley_permutation_oracle",
]
