"""Scheduling of network construction: heuristics, metaheuristics, exact solvers."""

from .graph import (
    ContractedGraph,
    GraphError,
    Network,
    SpanningTree,
    all_pairs_shortest_paths,
    cached_oracle,
    minimum_spanning_tree,
)
from .instances import (
    FAMILIES,
    GeneratorSpec,
    InstanceFormatError,
    generate,
    read_instance,
    write_instance,
)
from .local_search import Budget, impr, loc, mst_heuristic, mst_loc
from .metaheuristics import (
    DEFAULT_PARAMS,
    ILS,
    TS,
    iterated_local_search,
    run,
    shake,
    tabu_search,
)
from .model import (
    IT_VARIANTS,
    L,
    L_ETPC,
    SWRT,
    USRT,
    VARIANTS,
    EdgeSchedule,
    InfeasibleScheduleError,
    ModelError,
    ProblemInstance,
    PSequence,
    UndefinedGapError,
    UnsupportedVariantError,
    check_it_feasible,
    evaluate,
    format_gap,
    gap,
    pairs_connection_sequence,
    vertex_recovery_sequence,
)
from .neighborhoods import (
    KINDS,
    NET,
    SCH,
    a_et,
    a_it,
    neighbors,
)
from .solution import Solution, solve_tree
from .tree_solvers import (
    SizeGuardError,
    brute_force_instance,
    es_letpc,
    es_lmax,
    es_swrt,
    iter_spanning_trees,
    optimal_schedule,
)

__version__ = "0.1.0"
