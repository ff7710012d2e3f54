import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from quadricheck import generic_case
from quadricheck.projective import Point

settings.register_profile(
    "exact",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("exact")


coords = st.tuples(*(st.integers(-30, 30) for _ in range(4))).filter(
    lambda t: any(c != 0 for c in t)
)
points = coords.map(Point)
scalars = st.fractions(
    min_value=-30, max_value=30, max_denominator=12
).filter(lambda f: f != 0)


def value_pair(value):
    """An Extensor or Point as the (grade, coefficients) pair a trace step
    holds."""
    return value.grade, value.coeffs


def step_inputs(step):
    """A trace step's inputs as (grade, coefficients) pairs."""
    return list(zip(step.grades, step.inputs))


def step_output(step):
    """A trace step's output as a (grade, coefficients) pair."""
    return step.grades[-1], step.output


def seeded(name):
    return random.Random(f"tests:{name}")


def random_point(rng, bound=20):
    while True:
        t = tuple(rng.randint(-bound, bound) for _ in range(4))
        if any(c != 0 for c in t):
            return Point(t)


def random_fraction(rng, bound=12):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


@pytest.fixture
def announce(capsys):
    """Print a line that survives pytest's output capture."""

    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


@pytest.fixture(autouse=True, scope="session")
def built_generic_program():
    """The generic program is built once per process, by the first generic
    decision, which then also draws the reference tetrahedron and column.
    Building it first lets a test that counts what one decision builds or
    calls count that decision alone, in whatever order the tests run."""
    generic_case.generic_program()
