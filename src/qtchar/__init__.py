"""t-weighted characters of quantum loop algebra modules, types A and D.

Two independent computation routes (an axiomatic inductive engine and
closed tableaux sums) plus a crystal realization on monomials; the test
suite cross-validates them against each other.
"""

from .laurent import IntLaurent, t_binomial
from .rootdata import DynkinDiagram, Weight, bipartite_coloring, simple_root, weyl_dimension
from .yalgebra import (
    Character,
    DrinfeldData,
    Monomial,
    Spectral,
    a_monomial,
    character_from_json,
    character_to_json,
    drinfeld_from_monomial,
    e_decompose,
    e_expansion,
    forget_spectral,
    is_right_negative,
    leq,
    monomial_from_rational_tuple,
    pairing_d,
    specialize_t,
    v_profile,
)
from .engine import (
    FundamentalSpec,
    GammaGraph,
    check_zcondition,
    fundamental_character,
    gamma_graph,
    order_factors,
    rescaled_tilde,
    standard_character,
    twisted_product,
)
from .crystal import (
    CrystalGraph,
    eps,
    fit_coloring,
    generate_crystal,
    kashiwara_e,
    kashiwara_f,
    layer_from_orientation,
    p_index,
    phi,
    q_index,
    verify_crystal_axioms,
)

__version__ = "0.1.0"
