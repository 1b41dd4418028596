"""Exact Catalan-like triangles, shifted Hankel determinants, verification."""

from .ring import (
    C,
    NotDivisibleError,
    Polynomial,
    RingElement,
    as_poly,
    exact_div,
    parity_sign,
    render,
)
from .sequences import (
    Constant,
    Explicit,
    Shifted,
    WeightSpec,
    admissible_table,
    parse_weight_spec,
    shift,
)
from .hankel import (
    InternalDivisionError,
    det_fraction_free,
    hankel_det,
    hankel_dets,
    hankel_minors,
)
from .series import (
    NonUnitConstantTermError,
    TruncatedSeries,
    motzkin_power,
    motzkin_series,
)
from .polyfam import (
    fibonacci_poly,
    lucas_bivariate_at,
    lucas_bivariate_eval,
    lucas_poly,
)
from .verify import (
    CLAIM_IDS,
    CLAIMS,
    CheckReport,
    Witness,
    check_lemma13,
    check_theorem1,
    lemma13_sides,
)

__version__ = "0.1.0"
