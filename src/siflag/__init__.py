"""Exact character engine for current-algebra Weyl module Demazure submodules.

Core objects: finite root systems with their Weyl groups (`rootdata`), the
affine Weyl group and quantum Bruhat graph (`affine`), the q-graded character
ring with Demazure operators (`charpoly`), exact rational functions in q and t
and the integer packing of t-polynomials (`qt`), the nonsymmetric Macdonald
polynomials at generic (q, t) by intertwiner steps in every supported type
(`cherednik`, what `siflag emac` runs) and by the Gram-Schmidt oracle in rank
two at most (`macdonald`), and the module-character engine tying them
together (`weylchar`).  The `siflag`
console script fronts all of it.
"""

from .rootdata import (
    Coweight,
    RootSystem,
    Weight,
    WeylElement,
    build_root_system,
    from_name,
    minimal_coset_representative,
    minimal_coset_reps,
)
from .affine import (
    AffineElement,
    QuantumCover,
    adapted_sequence,
    affine_length,
    all_reduced_words,
    loop_translation_weight,
    minimal_loops,
    quantum_covers,
    s0_action,
    shortest_word,
    translation_word,
)
from .charpoly import (
    CharPoly,
    demazure_op,
    demazure_word,
    exact_divide,
    freeness_factor,
    t_op,
)
from .qt import QTRat
from .cherednik import cherednik_E
from .macdonald import (
    EPoly,
    bar_conjugate,
    gram_schmidt_E,
    specialize,
    triangular_order_ideal,
)
from .weylchar import (
    GenWeylChar,
    base_char,
    cns_step,
    cor_family,
    difference_loop_check,
    eigen_solve_base,
    genweyl_char,
    global_demazure_char,
    lambda_w,
    twisted_euler_char,
    weyl_character,
)

__version__ = "0.1.0"
