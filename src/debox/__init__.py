"""debox: differential evolution under strict box constraints.

A small laboratory for studying bound constraint handling methods (BCHMs)
in DE: strict-box benchmark problems, the DE/rand/1/bin and L-SHADE
engines, a pool of component- and vector-wise corrections, per-generation
bound-violation telemetry, convergence-behaviour classification, and the
similarity/clustering analyses used to compare methods and functions.
"""

__version__ = "0.1.0"

from .analysis import (
    Dendrogram,
    RankingTable,
    TrajectoryMatrix,
    build_trajectory_matrix,
    complete_linkage_cluster,
    cosine_similarity,
    cut_dendrogram,
    rank_methods,
)
from .bchm import (
    ADAPTIVE_POOL,
    METHOD_IDS,
    AdaptiveState,
    BetaFitParams,
    CorrectionContext,
    CorrectionOutcome,
    adaptive_select,
    adaptive_update,
    correct,
    fit_beta_params,
)
from .benchmarks import (
    BenchmarkProblem,
    ExternalProblem,
    catalog_ids,
    create_problem,
    make_instance,
    register_problem,
)
from .core import (
    Bounds,
    Population,
    PopulationStats,
    RngStream,
    population_stats,
    stable_key,
)
from .engine import (
    RunConfig,
    RunResult,
    ShadeState,
    classic_generation,
    lpsr_target_size,
    lshade_generation,
    run,
)
from .telemetry import (
    BehaviourClass,
    GenerationRecord,
    Trajectory,
    classify,
    record_generation,
)

