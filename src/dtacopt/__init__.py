"""Delay-tolerant augmented-consensus distributed optimization (DTAC-ADDOPT).

Push-sum gradient tracking over strongly connected digraphs where every
link carries a fixed, bounded, heterogeneous integer delay.
"""

from .costs import (
    GlobalProblem,
    make_least_squares,
    make_logistic,
    make_quadratic,
    make_smooth_svm,
)
from .delays import (
    AugmentedMatrix,
    DelayMap,
    DelaySlices,
    assign_delays,
    build_augmented_matrix,
    build_delay_slices,
)
from .graphs import (
    DirectedGraph,
    WeightMatrix,
    build_column_stochastic_weights,
    generate_erdos_renyi,
    generate_exponential_graph,
    is_strongly_connected,
)
from .optimizer import (
    AddOptEngine,
    AugmentedEngine,
    DtacEngine,
    RunConfig,
    StaticSetting,
    SwitchingPlan,
    init_states,
    run,
)
from .spectral import (
    build_spectral_report,
    contraction_sigma,
    limit_matrix,
    spectral_radius,
    step_size_bound,
    verify_spectral_bound,
)

__version__ = "0.1.0"
