"""letterkit: letter graphs, exact lettericity, modular decomposition,
obstruction profiles, and constructive lettering composition."""

from .composer import CompositionCertificate, compose, profile
from .graphs import (
    Graph,
    StackedPathLabels,
    all_graphs,
    bull,
    co_matching,
    complete,
    contains_induced,
    cycle,
    disjoint_union,
    from_graph6,
    generate,
    inflate,
    is_isomorphic,
    join,
    matching,
    path,
    stacked_path,
    threshold,
    to_dot,
    to_graph6,
)
from .letters import (
    Decoder,
    Lettering,
    decode,
    lettering_from_json,
    lettering_to_json,
    threshold_lettering,
    verify,
)
from .modular import (
    QuotientDecomposition,
    VertexRole,
    classify_vertex,
    is_module,
    is_prime,
    quotient,
)
from .obstructions import (
    BoundParams,
    ClassProfile,
    bounds,
    max_induced_matching,
    max_stacked_path,
    ramsey,
)
from .solver import (
    BudgetExceeded,
    LetterClassConstraint,
    Run,
    SolveReport,
    is_k_letterable,
    lettericity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
