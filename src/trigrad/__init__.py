"""trigrad: exact triply-graded link homology of braid closures and the
HOMFLYPT oracle it categorifies."""

from .algebra import (
    Bidegree,
    LaurentQT,
    Polynomial,
    PolyRing,
    QSeries,
    RationalQT,
    qt_expand,
)
from .braid import (
    BraidWord,
    MarkovMove,
    apply_markov,
    build_marked_diagram,
    closure_components,
    parse_braid,
    render_braid,
)
from .cube import (
    braid_homology, build_cube, reduce_mode_check, resolve, word_homology,
)
from .homfly import homfly_F, homfly_F_tilde, ocneanu_trace, solve_trace_params
from .homology import (
    TriGradedDims,
    compare_up_to_shift,
    euler_characteristic,
    graph_homology,
    hom_space_dim,
    link_homology,
    matrix_homology,
)
from .koszul import (
    KoszulMatrix,
    KoszulRow,
    ResolutionGraph,
    aggregate_a,
    build_upsilon,
    dualize,
    koszul_of_graph,
    row_op,
    strip_a,
)

__version__ = "0.1.0"

__all__ = [
    "Bidegree",
    "BraidWord",
    "KoszulMatrix",
    "KoszulRow",
    "LaurentQT",
    "MarkovMove",
    "Polynomial",
    "PolyRing",
    "QSeries",
    "RationalQT",
    "ResolutionGraph",
    "TriGradedDims",
    "aggregate_a",
    "apply_markov",
    "braid_homology",
    "build_cube",
    "build_marked_diagram",
    "build_upsilon",
    "closure_components",
    "compare_up_to_shift",
    "dualize",
    "euler_characteristic",
    "graph_homology",
    "hom_space_dim",
    "homfly_F",
    "homfly_F_tilde",
    "koszul_of_graph",
    "link_homology",
    "matrix_homology",
    "ocneanu_trace",
    "parse_braid",
    "qt_expand",
    "reduce_mode_check",
    "render_braid",
    "resolve",
    "row_op",
    "solve_trace_params",
    "strip_a",
    "word_homology",
]
