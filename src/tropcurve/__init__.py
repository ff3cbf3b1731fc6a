"""tropcurve: exact tropical plane curves and enumerative invariants.

Max-plus polynomials with rational coefficients, their dual Newton
subdivisions and tropical curves, lattice-path counts of rational curves
(N_d) and Welschinger invariants (W_d), cross-checked against the
Kontsevich-Manin recursion.  All core arithmetic is exact.
"""

from .curve import (
    BoundedEdge,
    CurveStats,
    CurveVertex,
    Ray,
    TropicalCurve,
    check_balancing,
    curve_multiplicity,
    curve_stats,
    degree,
    dual_subdivision,
    extract_curve,
    first_betti,
    membership_oracle,
    node_count,
    point_on_curve,
    welschinger_sign,
)
from .document import curve_document, write_document
from .errors import (
    BadDegreeError,
    CrossCheckMismatchError,
    DegenerateSupportError,
    DuplicateTermError,
    EmptySupportError,
    InvalidPathError,
    ParseError,
    TropcurveError,
)
from .invariants import (
    AsymptoticRow,
    TableRow,
    asymptotic_report,
    build_table,
    km_count,
)
from .paths import (
    KIND_COMPLEX,
    KIND_WELSCHINGER,
    ORDER_ROWMAJOR,
    ORDER_XEY,
    SIDE_MINUS,
    SIDE_PLUS,
    PathDomain,
    PathMultiplicity,
    count_both,
    enumerate_paths,
    nonzero_multiplicities,
    path_domain,
    path_multiplicity,
    side_multiplicity,
)
from .polynomial import (
    TropicalPolynomial,
    format_rational,
    parse_expression,
    parse_rational,
    parse_term_table,
)
from .svgout import render_svg

__version__ = "0.1.0"
