"""Conditional probability estimation over large label sets in O(log n) time.

The package provides an online binary label tree whose per-node regressors
factor P(y | x) into a product along the root-to-leaf path, subset-code
estimators (flat and k-way) that trade extra computation for a tighter loss
multiplier, standard baselines, and a progressive-validation harness. The
synthetic tasks and exact regrets are in ``cptree.synthetic``, not re-exported.
"""

from .data import ParseError, format_example_line, parse_example_line, read_example_file, read_examples
from .evaluation import (
    EmptyStreamError,
    Estimator,
    EvalReport,
    OneAgainstAll,
    TableBaseline,
    equivalent_labels,
    grid_search,
    hoeffding_halfwidth,
    progressive_validate,
)
from .features import (
    DEFAULT_HASH_BITS,
    Example,
    SparseVector,
    canonicalize,
    clip01,
    from_tokens,
    hash_feature,
)
from .model_io import LoadedModel, ModelConfig, build_estimator, load_model, read_sections, save_model
from .pecoc import KWayTree, PecocModel, decode_loss_bound, decode_probability, hadamard_code, loss_multiplier
from .regressor import LinearRegressor
from .tree import (
    CondProbTree,
    DepthStats,
    UnknownLabelError,
    insert_direction,
    insert_objective,
    max_depth_bound,
    max_side_fraction,
    total_depth_bound,
)

__version__ = "0.1.0"

__all__ = [
    "CondProbTree",
    "DEFAULT_HASH_BITS",
    "DepthStats",
    "EmptyStreamError",
    "Estimator",
    "EvalReport",
    "Example",
    "KWayTree",
    "LinearRegressor",
    "LoadedModel",
    "ModelConfig",
    "OneAgainstAll",
    "ParseError",
    "PecocModel",
    "SparseVector",
    "TableBaseline",
    "UnknownLabelError",
    "build_estimator",
    "canonicalize",
    "clip01",
    "decode_loss_bound",
    "decode_probability",
    "equivalent_labels",
    "format_example_line",
    "from_tokens",
    "grid_search",
    "hadamard_code",
    "hash_feature",
    "hoeffding_halfwidth",
    "insert_direction",
    "insert_objective",
    "load_model",
    "loss_multiplier",
    "max_depth_bound",
    "max_side_fraction",
    "parse_example_line",
    "progressive_validate",
    "read_example_file",
    "read_examples",
    "read_sections",
    "save_model",
    "total_depth_bound",
]
