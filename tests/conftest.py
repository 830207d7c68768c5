import pytest

from ncspheres.homology import trace_chain
from ncspheres.ncalg import Algebra
from ncspheres.rmatrix import DeformParams, build_R_quaternionic
from ncspheres.scalars import EXACT
from ncspheres.spheres import build_sphere, compute_Y


def make_point(label, backend=EXACT):
    """Algebra, sphere context, and Y system at one parameter point."""
    p = DeformParams.parse(label)
    alg = Algebra(build_R_quaternionic(p, backend), backend)
    s = build_sphere(alg, "seven_sphere", params=p)
    ys = compute_Y(s)
    return p, alg, s, ys


def expanded_odd(ctx3, U, k):
    """ch_{k+1/2}(U) expanded into terms: the oracle for the factored chern_odd."""
    Ud = U.dagger()
    return trace_chain(ctx3, [U, Ud] * (k + 1)) - trace_chain(ctx3, [Ud, U] * (k + 1))


@pytest.fixture(scope="session")
def pyth():
    """The main Pythagorean point: exact eigenphase available."""
    return make_point("3/5,4/5,0")


@pytest.fixture(scope="session")
def mixed():
    """A point with u2 != 0: no exact eigenphase, generators non-normal."""
    return make_point("1/3,2/3,2/3")


@pytest.fixture(scope="session")
def classical():
    return make_point("1,0,0")
