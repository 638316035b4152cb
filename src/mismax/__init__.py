"""mismax: counting size-t maximal independent sets and verifying the
extremal bound q^(t-r)(q+1)^r with its unique extremal graph."""

from .canon import CanonicalForm, canonical_form
from .codec import (
    CodecError,
    graph6_decode,
    graph6_encode,
    read_edge_list,
    read_graph6_stream,
    write_edge_list,
)
from .counting import (
    SizeProfile,
    maximal_clique_size_profile,
    mis_size_profile,
    oracle_mis_size_profile,
)
from .extremal import (
    BoundDecomposition,
    ExtremalReport,
    SplitReport,
    bound_f,
    build_H,
    build_turan,
    induction_split,
    proof_subcase,
    verify_bound_exhaustive,
    verify_bound_stream,
)
from .graph import (
    Graph,
    complement,
    complete_graph,
    degree,
    delete_vertex,
    disjoint_union,
    empty_graph,
    from_edges,
    induced_subgraph,
    min_degree,
)

__all__ = [
    "CanonicalForm",
    "CodecError",
    "BoundDecomposition",
    "ExtremalReport",
    "Graph",
    "SizeProfile",
    "SplitReport",
    "bound_f",
    "build_H",
    "build_turan",
    "canonical_form",
    "complement",
    "complete_graph",
    "degree",
    "delete_vertex",
    "disjoint_union",
    "empty_graph",
    "from_edges",
    "graph6_decode",
    "graph6_encode",
    "induced_subgraph",
    "induction_split",
    "maximal_clique_size_profile",
    "min_degree",
    "mis_size_profile",
    "oracle_mis_size_profile",
    "proof_subcase",
    "read_edge_list",
    "read_graph6_stream",
    "verify_bound_exhaustive",
    "verify_bound_stream",
    "write_edge_list",
]

__version__ = "0.1.0"
