"""Snark criticality toolkit.

Decides 3-edge-colorability and nowhere-zero 4-flow existence on cubic
multigraphs (loops, parallel and dangling edges included), classifies
snarks as critical / bicritical / flow-critical / strong along two
independent decision routes, and verifies on concrete graphs that the
routes coincide.
"""

from .coloring import is_proper_coloring, three_edge_colorable
from .criticality import (
    ClassificationRecord,
    CoincidenceCertificate,
    DecisionTable,
    EquivalenceViolationError,
    LocalEquivalenceCertificate,
    NotASnarkError,
    PairReport,
    StrongCertificate,
    classify,
    is_4_edge_critical,
    is_4_vertex_critical,
    is_bicritical,
    is_critical,
    is_snark,
    is_strong,
    snark_status,
    strong_certificate,
    verify_classifier_coincidence,
    verify_local_equivalence,
)
from .flows import nowhere_zero_flow, verify_kirchhoff
from .graph_io import (
    CorpusEntry,
    Graph6EncodeError,
    Graph6ParseError,
    encode_graph6,
    make_named,
    parse_graph6,
    read_graph6_file,
    write_records,
)
from .multigraph import (
    DANGLING,
    CubicGraph,
    Edge,
    GraphError,
    NonSuppressibleError,
    VertexPair,
    build_graph,
    contract_edge,
    delete_edge,
    expand_triangle,
    identify_vertices,
    remove_vertex_pair,
    suppress_edge,
)
from .structure import (
    StructureProfile,
    cyclic_edge_connectivity,
    find_bridges,
    girth,
    structure_profile,
)

__version__ = "0.1.0"
