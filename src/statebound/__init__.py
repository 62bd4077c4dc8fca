"""State-space topology (diameter, recurrence diameter, traversal diameter)
and compositional plan-length upper bounds for factored transition systems."""

from .core import (
    Action,
    DomainMismatchError,
    FullState,
    PartialState,
    StateSpaceTooLargeError,
    System,
    TransitionGraph,
    Variable,
    build_transition_graph,
    execute,
    execute_sequence,
    union_precedence,
)
from .oracle import (
    MAX_BOUND,
    ConjectureVerdict,
    SimplePathSearchTooLargeError,
    TopoReport,
    check_conjecture,
    compute_topo_report,
    diameter,
    distinct_trace,
    exp_bound,
    longest_simple_path,
    recurrence_diameter_bruteforce,
    traversal_diameter,
    traversal_walk,
)
from .smt import (
    RdResult,
    SmtDocument,
    SolverConfig,
    SolverError,
    SolverVerdict,
    decode_factored_model,
    encode_explicit,
    encode_factored,
    rd_via_smt,
    run_solver,
)
from .compose import (
    BaseCaseKind,
    BoundConfig,
    BoundReport,
    ClusterDecomposition,
    base_case,
    compositional_bound,
    decompose,
    dependency_graph,
    project,
)
from .gen import (
    GenerationError,
    GeneratorSpec,
    SplitMix64,
    disjoint_union,
    gen_clique,
    gen_lotus,
    gen_random,
    gen_star,
    generate,
)
from .io import (
    SystemDocument,
    SystemParseError,
    parse_document,
    parse_system,
    serialize_system,
    write_report,
)

__version__ = "0.1.0"
