"""Pandiagonal latin squares, cubes and hypercubes from linear forms over Z_n.

The pipeline: pick a feasible coefficient vector (params), materialize its
array (lattice), verify pandiagonality line by line (verify), collect an
orthogonal family (orthogonal), and compose the family into a pandiagonal
magic array (magic).  The cli module wraps it all for the command line.
"""

from .lattice import (
    AXIS_NAMES,
    MAX_ORDER,
    LatinArray,
    SliceSpec,
    Tie,
    build,
    permute_symbols,
    shift_axis,
    slice_values,
    slice_view,
)
from .magic import (
    MagicArray,
    compose,
    compose_checked,
    count_constructed,
    count_orthogonal_families,
    decompose,
    sigma,
)
from .modarith import MAX_MODULUS, Residue, gcd, is_coprime, mod_inverse
from .orthogonal import (
    ParamMatrix,
    check_orthogonal_fast,
    determinant,
    determinant_mod,
    verify_orthogonal_brute,
)
from .params import (
    ConstraintReport,
    ParamVector,
    canonicalize,
    check,
    check_pair,
    check_quad,
    check_triple,
    count_feasible,
    enumerate_feasible,
    iter_feasible,
    minimal_order,
    scale,
)
from .verify import (
    Failure,
    Line,
    SquareView,
    VerificationReport,
    enumerate_cubes,
    enumerate_lines,
    enumerate_squares,
    verify_latin_pandiagonal,
    verify_magic_pandiagonal,
)

__version__ = "0.1.0"

__all__ = [
    "AXIS_NAMES",
    "MAX_MODULUS",
    "MAX_ORDER",
    "ConstraintReport",
    "Failure",
    "LatinArray",
    "Line",
    "MagicArray",
    "ParamMatrix",
    "ParamVector",
    "Residue",
    "SliceSpec",
    "SquareView",
    "Tie",
    "VerificationReport",
    "build",
    "canonicalize",
    "check",
    "check_orthogonal_fast",
    "check_pair",
    "check_quad",
    "check_triple",
    "compose",
    "compose_checked",
    "count_constructed",
    "count_feasible",
    "count_orthogonal_families",
    "decompose",
    "determinant",
    "determinant_mod",
    "enumerate_cubes",
    "enumerate_feasible",
    "enumerate_lines",
    "enumerate_squares",
    "gcd",
    "is_coprime",
    "iter_feasible",
    "minimal_order",
    "mod_inverse",
    "permute_symbols",
    "scale",
    "shift_axis",
    "sigma",
    "slice_values",
    "slice_view",
    "verify_latin_pandiagonal",
    "verify_magic_pandiagonal",
]
