"""Exact bases and products for free and enveloping Lie Rota-Baxter algebras.

The pieces, bottom up: terms and orders (terms), sparse rational
combinations (lincomb), the expression grammar (expr), Lyndon-style word
shapes (lyndon), the generic straightening engine (straighten), partially
commutative contexts (pcls), free operator contexts (free_rb), structure
tables and their laws (algebras), enveloping contexts (enveloping), the
seeded generator (rng), the property harness (verify), and the CLI (cli).
"""

from .algebras import (
    Report, StructureAlgebra, abelianize, check_lie, check_pre_lie, check_post_lie,
    derivation_prelie_example, format_algebra, load_algebra, parse_algebra_text,
)
from .enveloping import EnvContext, embed, pbw_table
from .expr import ExprError, format_lincomb, parse_expr, parse_word
from .free_rb import FreeRBContext
from .lincomb import LinComb
from .lyndon import is_assoc_ls, standard_bracketing
from .pcls import (
    CommGraph, LSContext, PCLSContext, format_graph, load_graph, parse_graph_text,
)
from .rng import XorShift64
from .straighten import BasisContext, FuelError, enumerate_basis
from .terms import (
    Alphabet, Br, Gen, RApp, Word, atoms, compare_words,
    sort_words_descending, total_cmp,
)
from .verify import PROPERTIES, run_property, witt_count

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "BasisContext", "Br", "CommGraph", "EnvContext", "ExprError",
    "FreeRBContext", "FuelError", "Gen", "LSContext", "LinComb", "PCLSContext",
    "PROPERTIES", "RApp", "Report", "StructureAlgebra", "Word", "XorShift64",
    "abelianize", "atoms", "check_lie", "check_pre_lie", "check_post_lie",
    "compare_words", "derivation_prelie_example", "embed",
    "enumerate_basis",
    "format_algebra", "format_graph", "format_lincomb",
    "is_assoc_ls", "load_algebra", "load_graph", "parse_algebra_text",
    "parse_expr", "parse_graph_text", "parse_word", "pbw_table", "run_property",
    "sort_words_descending", "standard_bracketing", "total_cmp", "witt_count",
    "__version__",
]
