"""Exact symbolic engine for quaternionic noncommutative spheres."""

__version__ = "0.1.0"

from .scalars import EXACT, FLOAT, GaussRational  # noqa: F401
from .rmatrix import DeformParams, build_R_quaternionic, check_all_conditions  # noqa: F401
from .ncalg import Algebra, NCPoly, ReductionContext  # noqa: F401
from .spheres import build_sphere, build_projection, compute_Y  # noqa: F401
