"""Finite double categories lifted from decorated bicategories.

Table-backed monoids, categories, strict bicategories and double
categories, the Grothendieck-style lifting of a decorated bicategory along
a monoidal pre-cosheaf, and the structural analysis of the result: globular
generation, vertical length, foldings and the extraction adjunction.
"""

from .errors import StructureError
from .fincat import (
    FiniteCategory,
    FunctorData,
    Monoid,
    MonoidAction,
    MonoidMorphism,
    StrictMonoidalCategory,
    delooping,
    endomorphism_monoid_of_object,
    monoidal_delooping,
    semidirect_product,
)
from .twocat import DecoratedBicategory, StrictBicategory, decorate, suspend
from .grothendieck import (
    Precosheaf,
    TotalCategory,
    constant_precosheaf,
    extended_total,
    identity_precosheaf,
    precosheaf_from_action,
    total_category,
)
from .doublecat import (
    DoubleCategory,
    DoubleFunctor,
    Square,
    check_double_axioms,
    decorated_horizontalization,
    globular_squares,
    horizontalization,
)
from .lift import LiftData, PrecosheafMap, lift, lift_data, lift_functor
from .analysis import (
    Folding,
    VerticalChain,
    find_cofolding,
    find_folding,
    gamma,
    gg_criterion_surjective,
    is_gg,
    v1_membership,
    vertical_chain,
    vertical_length,
)
from .adjoint import check_triangle_identities, extract_phi, phi_of_double_functor, pi_functor

__version__ = "0.1.0"
