"""mismax: counting size-t maximal independent sets and verifying the
extremal bound q^(t-r)(q+1)^r with its unique extremal graph.

The public names are loaded on first access (PEP 562), so importing the
package, or running one command of mismax.cli, imports only the modules it
uses.
"""

# public name -> the module that defines it
_EXPORTS = {
    "CanonicalForm": "graph",
    "canonical_form": "canon",
    "CodecError": "codec",
    "graph6_decode": "codec",
    "graph6_encode": "codec",
    "read_edge_list": "codec",
    "read_graph6_stream": "codec",
    "write_edge_list": "codec",
    "SizeProfile": "counting",
    "maximal_clique_size_profile": "counting",
    "mis_size_profile": "counting",
    "oracle_mis_size_profile": "counting",
    "BoundDecomposition": "extremal",
    "ExtremalReport": "extremal",
    "bound_f": "extremal",
    "build_H": "extremal",
    "build_turan": "extremal",
    "verify_bound_exhaustive": "extremal",
    "verify_bound_stream": "extremal",
    "SplitReport": "proof",
    "induction_split": "proof",
    "proof_subcase": "proof",
    "Graph": "graph",
    "complement": "graph",
    "complete_graph": "graph",
    "degree": "graph",
    "delete_vertex": "graph",
    "disjoint_union": "graph",
    "empty_graph": "graph",
    "from_edges": "graph",
    "induced_subgraph": "graph",
    "min_degree": "graph",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
