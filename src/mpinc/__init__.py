"""Exact Moore-Penrose inverses of set, subspace, and design incidence matrices.

Everything is computed over exact rationals (or GF(p) where admissible);
there are no tolerances anywhere. Closed-form inverses are cross-checked
against an independent full-rank-factorization oracle in the test suite.
"""

from .combinat import (
    all_subsets,
    binomial,
    gauss_binomial_formula_check,
    gaussian_binomial,
    int_polynomial,
    poly_eval,
    q_integer,
    q_ruiz_sum,
    ruiz_sum,
)
from .designs import (
    Design,
    SurveyReport,
    build_design_incidence,
    lambda_s,
    m1_mpinv_closed_form,
    ms_mpinv_oracle,
    parse_design,
    survey_designs,
    validated_design,
)
from .formats import (
    write_csv,
    write_json,
    write_mtx,
)
from .errors import (
    DesignParseError,
    InvalidFieldError,
    MpincError,
    NotReducibleError,
    ParameterError,
    ShapeError,
)
from .gf import (
    FieldSpec,
    build_field,
    render_element,
)
from .linalg import (
    IncidenceMatrix,
    PenroseReport,
    RatMatrix,
    first_difference,
    penrose_check,
    penrose_check_mod_p,
    pseudoinverse_oracle,
    rat_matrix_mod_p,
)
from .rationals import (
    is_prime,
    rat_mod_p,
)
from .subspaces import (
    ClassMatrix,
    SubspaceBasis,
    build_incidence,
    char_p_obstruction,
    class_matrix,
    count_contained_with_intersection,
    count_containing_with_intersection,
    enumerate_subspaces,
    expand_class_matrix,
    intersection_dim,
    labels,
    mpinv_class_values,
)

__version__ = "0.1.0"

__all__ = [
    "is_prime",
    "rat_mod_p",
    "binomial",
    "q_integer",
    "gaussian_binomial",
    "int_polynomial",
    "poly_eval",
    "ruiz_sum",
    "q_ruiz_sum",
    "gauss_binomial_formula_check",
    "FieldSpec",
    "build_field",
    "render_element",
    "RatMatrix",
    "IncidenceMatrix",
    "PenroseReport",
    "pseudoinverse_oracle",
    "penrose_check",
    "penrose_check_mod_p",
    "rat_matrix_mod_p",
    "first_difference",
    "all_subsets",
    "SubspaceBasis",
    "enumerate_subspaces",
    "labels",
    "intersection_dim",
    "build_incidence",
    "mpinv_class_values",
    "ClassMatrix",
    "class_matrix",
    "expand_class_matrix",
    "char_p_obstruction",
    "count_containing_with_intersection",
    "count_contained_with_intersection",
    "Design",
    "SurveyReport",
    "parse_design",
    "validated_design",
    "lambda_s",
    "build_design_incidence",
    "m1_mpinv_closed_form",
    "ms_mpinv_oracle",
    "survey_designs",
    "write_csv",
    "write_json",
    "write_mtx",
    "MpincError",
    "ParameterError",
    "ShapeError",
    "NotReducibleError",
    "InvalidFieldError",
    "DesignParseError",
]
