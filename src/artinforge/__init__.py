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
    krull_dim_monomial,
    multiplicity,
    standard_monomials,
    substitute,
    substitute_ideal,
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
    reduce,
    xring,
)
from .quotient import (
    QuotientAlgebra,
    annihilator,
    contract,
    equivariant_graded_trace,
    graded_traces,
    hilbert_series,
    socle_dimension,
)
from .reptheory import (
    ClassFunction,
    conjugacy_classes,
    half_powerset_character,
    partitions,
    powerset_character,
    subset_character,
    trivial_character,
    xn_character,
)

__version__ = "0.1.0"
