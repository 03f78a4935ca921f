"""Distance magic labelings of graphs over finite abelian groups.

The package builds finite abelian groups and simple graphs, takes their
lexicographic/direct/Cartesian products, constructs magic labelings for the
product families that admit them, recognizes structural obstructions, and
can exhaustively search small instances with an independently-checked
verifier as the single source of truth.
"""

from .abelian import (
    CyclicFactorSplit,
    GroupElement,
    GroupError,
    GroupSpec,
    cayley_tables,
    cyclic_group,
    enumerate_abelian_groups,
    find_cyclic_factor,
    find_cyclic_two_factor,
    involutions,
    parse_group_spec,
    sum_of_elements,
    trivial_group,
    two_power_exponents,
)
from .graphs import (
    Graph,
    GraphError,
    GraphMetrics,
    GraphParseError,
    MAX_EXPR_DEPTH,
    MAX_TREE_VERTICES,
    TwinPairing,
    complete,
    complete_bipartite,
    complete_bipartite_parts,
    complete_minus_matching,
    complete_multipartite,
    construct_graph,
    cycle,
    enumerate_trees,
    find_isomorphism,
    find_twin_pairing,
    from_edge_list_file,
    from_edge_list_text,
    graph_power,
    is_balanced_dmg,
    is_isomorphic,
    is_tree,
    join,
    matching_join_pairs,
    metrics,
    path,
    star,
)
from .products import cartesian_product, composite_id, direct_product, lex_product
from .magic import (
    Certificate,
    CertificateError,
    FORCED_IDENTITY,
    Labeling,
    LabelingError,
    Obstruction,
    SHARED_NEIGHBORHOOD,
    TREE_SHAPE,
    TWO_UNIVERSAL,
    all_obstructions,
    detect_biregular_universal,
    format_certificate,
    kmn_group_magic,
    load_certificate,
    negate_labeling,
    obstruction_shared_neighborhood,
    obstruction_two_universal,
    parse_certificate,
    save_certificate,
    to_zn_labeling,
    tree_group_magic,
    verify,
    verify_certificate,
    weight,
    weight_mismatch,
)
from .constructors import (
    ConstructionError,
    ConstructionReport,
    auto_label,
    auto_label_bare,
    label_dir_balanced_pow2,
    label_dir_c4k2,
    label_lex_balanced_pow2,
    label_lex_c4k2,
    label_lex_even_degrees,
    label_lex_kmn_mixed,
    label_matching_join,
    label_matching_join_graph,
    label_star,
    label_star_graph,
)
from .solver import (
    NAIVE_VERTEX_CAP,
    PRUNED_VERTEX_CAP,
    SearchOptions,
    SearchSizeError,
    SolverError,
    classify_over_all_groups,
    is_group_distance_magic,
    search_labelings,
)

__version__ = "0.1.0"
