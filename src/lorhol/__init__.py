"""Curvature classification, holonomy identification and projective
equivalence for closed-form 4-dimensional Lorentz metrics."""

from .exprdsl import (
    DomainError, Expr, ParamEnv, ParseError, UnknownIdentifierError,
    differentiate, eval_expr, parse_expr, to_string,
)
from .pointcalc import (
    MetricSpec, PointFrame, cov_deriv_riemann_at, cov_deriv_sym2_at,
    frame_at, frames_at, metric_spec, sample_points, signature_at,
    weyl_conformal_at,
)
from .bivector import (
    Bivector, BivectorClass, classify_bivector, curvature_map_matrix,
    hodge_dual,
)
from .curvclass import (
    CurvatureClassReport, classify_curvature, kernel_vectors, solve_theorem1,
)
from .holonomy import (
    HolonomyAlgebraReport, close_algebra, constant_directions, holonomy_survey,
    identify_type, ihol_generators, lie_bracket, recurrent_directions,
)
from .projective import (
    ProjectivePair, SinyukovPair, curvature_relation_residual, invert_pair,
    lambda_from_trace, lemma1_checks, pregeodesic_check, projective_residual,
    psi_from_connections, sinyukov_residual, weyl_projective_at,
    weyl_projective_equal,
)
from .fixtures import (
    FixtureBundle, fixture_minkowski, fixture_r9_r14, fixture_r10_r13,
    fixture_r11, named_fixture,
)

__version__ = "0.1.0"
