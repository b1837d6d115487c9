"""artinforge: an exact computer-algebra workbench for a family of binomial
ideals and their Artinian quotients, with a registry of machine-checked
structural claims."""

from .errors import (
    AmbientMismatchError,
    EquivarianceError,
    NotArtinianError,
    ResourceLimitError,
)
from .groebner import (
    DEFAULT_PAIR_CAP,
    GroebnerBasis,
    StandardBasis,
    buchberger,
    colon_ideal,
    ideal_equal,
    ideal_member,
    is_regular_element,
    krull_dim_monomial,
    standard_monomials,
    substitute,
    substitute_ideal,
    top_form_basis,
)
from .paperlab import (
    CLAIMS,
    SymbolicPoint,
    VerificationReport,
    Workbench,
    bernoulli,
    build_ideal,
    challenge_series,
    cyclotomic_poly,
    enumerate_points,
    expected_codimension,
    verify,
    verify_points_satisfy_ideal,
)
from .polyarith import (
    DEGLEX,
    GREVLEX,
    LEX,
    Ideal,
    Polynomial,
    PolyRing,
    TermOrder,
    format_polynomial,
    parse_polynomial,
    reduce,
    xring,
)
from .quotient import (
    QuotientAlgebra,
    annihilator,
    contract,
    equivariant_graded_trace,
    hilbert_series,
    socle_dimension,
)
from .reptheory import (
    ClassFunction,
    GradedClassFunction,
    conjugacy_classes,
    half_powerset_character,
    partitions,
    powerset_character,
    subset_character,
    trivial_character,
    xn_character,
)

__version__ = "0.1.0"
