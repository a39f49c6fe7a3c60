"""Nim values of group generation games.

Positions are subsets of a finite group; a move adds one element.  In the
achievement game the player who first makes the set generating wins; in the
avoidance game a player may never make it generating, and whoever cannot
move loses.  The package computes nim values by brute force or through the
intersection-subgroup structure, draws the associated structure digraphs,
and verifies the closed-form values for generalized dihedral groups.
"""

from .diagram import (
    DigraphVertex,
    MergedVertex,
    SimplifiedDiagram,
    StructureDigraph,
    TypeTriple,
    build_digraph,
    digraph_to_dict,
    simplified_to_dict,
    simplify,
    to_dot,
    type_of,
)
from .errors import (
    CapacityError,
    NimgenError,
    NonAbelianError,
    OutOfScopeError,
    SpecParseError,
    TableFormatError,
)
from .groups import (
    Cyclic,
    Dih,
    GroupSpec,
    GroupTable,
    Product,
    TableFile,
    build_cyclic,
    build_group,
    dihedralize,
    direct_product,
    element_order,
    generated_subgroup,
    is_abelian,
    is_nilpotent,
    iter_mask,
    load_table_file,
    mask_of,
    parse_group_spec,
    parse_table_text,
    to_table_text,
)
from .lattice import (
    DEFAULT_ORDER_CAP,
    TERMINAL,
    IntersectionLattice,
    all_subgroups,
    ceil_class,
    DeficiencyTable,
    class_edges,
    class_parity,
    deficiency_table,
    intersection_subgroups,
    maximal_subgroups,
)
from .solver import (
    DEFAULT_BRUTE_CAP,
    DNG,
    GEN,
    ClassNimTable,
    SolveResult,
    brute_nim,
    brute_search,
    mex,
    nim_of_game,
    solve,
    structure_nim,
)
from .theory import (
    ABELIAN_CATALOG,
    DIHEDRAL_FAMILY,
    DNG_FAMILY,
    EXTENDED_CATALOG,
    SMALL_CATALOG,
    THEOREM_FAMILY,
    AbelianSpec,
    CheckReport,
    FamilyRecord,
    FamilyReport,
    abelian_groups,
    check_deficiency_oracle,
    check_even_type_table,
    check_odd_case_lemmas,
    check_option_deficiency,
    predict_dng_dih,
    predict_gen_dih,
    strata,
    verify_family,
    verify_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NimgenError", "SpecParseError", "NonAbelianError", "TableFormatError",
    "CapacityError", "OutOfScopeError",
    # groups
    "GroupTable", "Cyclic", "Product", "Dih", "TableFile", "GroupSpec",
    "build_cyclic", "direct_product", "dihedralize", "build_group",
    "parse_group_spec", "load_table_file",
    "parse_table_text", "to_table_text", "is_abelian", "is_nilpotent",
    "element_order", "mask_of", "iter_mask", "generated_subgroup",
    # lattice
    "TERMINAL", "DEFAULT_ORDER_CAP", "IntersectionLattice", "all_subgroups",
    "maximal_subgroups", "intersection_subgroups", "ceil_class",
    "class_parity", "class_edges", "DeficiencyTable", "deficiency_table",
    # solver
    "GEN", "DNG", "DEFAULT_BRUTE_CAP", "mex", "brute_search", "brute_nim", "ClassNimTable", "structure_nim",
    "SolveResult", "solve", "nim_of_game",
    # theory
    "strata", "AbelianSpec", "abelian_groups", "predict_gen_dih",
    "predict_dng_dih", "FamilyRecord", "FamilyReport", "verify_family",
    "verify_suite", "CheckReport", "check_even_type_table",
    "check_option_deficiency", "check_odd_case_lemmas", "check_deficiency_oracle",
    "DIHEDRAL_FAMILY", "THEOREM_FAMILY",
    "DNG_FAMILY", "SMALL_CATALOG", "EXTENDED_CATALOG", "ABELIAN_CATALOG",
    # diagram
    "TypeTriple", "DigraphVertex", "StructureDigraph", "MergedVertex",
    "SimplifiedDiagram", "type_of", "build_digraph", "simplify", "to_dot",
    "digraph_to_dict", "simplified_to_dict",
]
