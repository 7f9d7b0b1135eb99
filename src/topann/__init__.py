"""Annihilators of top local cohomology over Stanley-Reisner rings.

Exact computation of cohomological dimension, certified annihilator bounds for
the top local cohomology of R = S/J with J squarefree monomial, the
three-prime counterexample family for Lynch's conjecture, and an independent
multigraded Cech oracle.
"""

from .annihilator import (
    AnnBoundsReport,
    HeightReport,
    annihilator_bounds,
    height_report,
    localization_kernel,
    symbolic_power,
    torsion_ideal,
)
from .cech import (
    AnnihilationVerdict,
    CechReport,
    DegreeBox,
    DegreeRanks,
    annihilation_check,
    cech_ranks,
    localization_piece,
)
from .cohomdim import (
    CdReport,
    cd_on_prime,
    cohomological_dimension,
    grade_on_prime,
)
from .errors import GuardExceededError, InvalidInputError
from .linalg import (
    FieldSpec,
    VectorSpaceComplex,
    cohomology_ranks,
)
from .lynch import (
    LynchInstance,
    LynchReport,
    build_instance,
    fixture,
    search_family,
    verify_instance,
)
from .monomial import (
    Monomial,
    MonomialIdeal,
    ideal_sum,
    minimalize,
    power,
    prime_intersection,
    radical,
    variable_ideal,
)
from .stanley_reisner import (
    QuotientIdeal,
    QuotientRing,
    height_in_quotient,
    krull_dim,
    minimal_primes,
)

__all__ = [
    "AnnBoundsReport",
    "AnnihilationVerdict",
    "CdReport",
    "CechReport",
    "DegreeBox",
    "DegreeRanks",
    "FieldSpec",
    "GuardExceededError",
    "HeightReport",
    "InvalidInputError",
    "LynchInstance",
    "LynchReport",
    "Monomial",
    "MonomialIdeal",
    "QuotientIdeal",
    "QuotientRing",
    "VectorSpaceComplex",
    "annihilation_check",
    "annihilator_bounds",
    "build_instance",
    "cd_on_prime",
    "cech_ranks",
    "cohomological_dimension",
    "cohomology_ranks",
    "fixture",
    "grade_on_prime",
    "height_in_quotient",
    "height_report",
    "ideal_sum",
    "krull_dim",
    "localization_kernel",
    "localization_piece",
    "minimal_primes",
    "minimalize",
    "power",
    "prime_intersection",
    "radical",
    "search_family",
    "symbolic_power",
    "torsion_ideal",
    "variable_ideal",
    "verify_instance",
]

__version__ = "0.1.0"
