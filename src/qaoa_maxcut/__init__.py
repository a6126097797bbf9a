"""QAOA Max-Cut toolkit: exact simulation, depth-progressive initialization
strategies, bounded optimization with evaluation accounting, and landscape
symmetry checks."""

from .graphs import (
    Graph,
    GraphClass,
    classify,
    cut_value,
    gen_erdos_renyi,
    gen_random_regular,
    max_cut_brute_force,
    read_edge_list,
    write_edge_list,
)
from .optimize import (
    Bounds,
    OptimizationError,
    OptimizerConfig,
    OptResult,
    bounds_for_graph,
    clamp,
    maximize_bounded,
)
from .simulator import ExpectationEvaluator, Parameters, expectation_dense_oracle
from .strategies import (
    DepthRecord,
    StrategyConfig,
    base_exhaustion,
    bilinear_predict,
    linear_ramp_init,
    run_bilinear,
    run_layerwise,
    run_linear_ramp,
    run_parameters_fixing,
)
from .symmetry import (
    SymmetryReport,
    check_angle_reversal,
    check_even_regular,
    check_general_point_symmetry,
    check_odd_regular,
    check_periodicity,
    run_symmetry_suite,
    tilde_beta,
)
from .experiment import (
    ExperimentConfig,
    InstanceSpec,
    ResultSet,
    emit_alpha_table,
    emit_landscape,
    emit_params_trace,
    run_experiment,
)

__version__ = "0.1.0"
