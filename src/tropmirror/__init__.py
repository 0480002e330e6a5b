"""SYZ mirror data of toric Calabi-Yau webs.

From a toric diagram (smooth tropical curve or GLSM charge matrix) this
package produces the validated diagram, its monodromy representation and
embedded dual graph, the Novikov-valued superpotential, the mirror algebra
presentation x*y - g, and a wall-crossing evaluator for the focus-focus
pipeline.  All arithmetic is exact.
"""

__version__ = "0.1.0"

# diagram loads before dual: dual imports from it, and it imports dual back at
# its end.  analytic, the largest module, comes next (it loads affine, mirror
# and novikov), so that its compile runs with the fewest modules already in
# memory.
from .diagram import TropicalDiagram, dual_subdivision, is_smooth, validate
from .analytic import focus_focus_demo, wall_cross
from .charges import ChargeMatrix, build_web
from .mirror import normalize_presentation, superpotential
from .monodromy import build_dual_graph, edge_covector
from .affine import build_cut_presentation, chamber_of, transport_covector
from .novikov import NovikovElement, nov, nov_add, nov_inv, nov_mul, nov_val

__all__ = [
    "TropicalDiagram",
    "ChargeMatrix",
    "NovikovElement",
    "validate",
    "dual_subdivision",
    "is_smooth",
    "build_web",
    "superpotential",
    "normalize_presentation",
    "edge_covector",
    "build_dual_graph",
    "build_cut_presentation",
    "chamber_of",
    "transport_covector",
    "focus_focus_demo",
    "wall_cross",
    "nov",
    "nov_add",
    "nov_mul",
    "nov_inv",
    "nov_val",
]
