"""Property tests of the descent state against a dense reference iterate.

Hypothesis draws sequences of nonpositive gradient samples. Each lands on a
monomial written as one of its tuples: any order of its indices, with any
number of constant-kernel 0s mixed in, so that tuples share columns. The
magnitudes run from round-off size to sizes whose projection underflows
older coordinates to zero. After every step the state must agree with a
dense reference that applies the same update and projection to a plain dict
of values.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polymkl import Dataset, OptimizerState, RhoSchedule, build_base_kernels
from polymkl.kernels import monomial_key

R, D, N = 2, 3, 6
MONOMIALS = [
    t for d in range(D + 1) for t in itertools.combinations_with_replacement(range(1, R + 1), d)
]
MAGNITUDES = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([0.0, 5e-324, 1e-200, 1e-30, 1e6, 1e20, 1e150]),
)


@st.composite
def tuple_of_a_monomial(draw):
    base = draw(st.sampled_from(MONOMIALS))
    zeros = draw(st.integers(0, D - len(base)))
    return tuple(draw(st.permutations(list(base) + [0] * zeros)))


STEPS = st.lists(
    st.tuples(tuple_of_a_monomial(), MAGNITUDES, st.sampled_from([0.05, 1.0])),
    min_size=1,
    max_size=30,
)


def make_state():
    rng = np.random.default_rng(0)
    data = Dataset(inputs=rng.normal(size=(N, R)), targets=rng.normal(size=N))
    ks = build_base_kernels(data, include_constant=True, D=D)
    rho = RhoSchedule(np.array([1.0, 0.5, 2.0, 1.5])).scaled(1e-2)
    return OptimizerState(ks, rho)


def close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= 1e-12 + 1e-9 * abs(expected)


def check_against_dense_reference(steps, seen):
    """Run `steps` on a fresh state and a dense reference side by side,
    counting into `seen` the projections, the weights underflowing to 0 and
    the shared columns they exercised."""
    state = make_state()
    reference: dict = {}
    running_sum: dict = {}
    for k, (idx, magnitude, eta) in enumerate(steps, start=1):
        for key, value in reference.items():
            running_sum[key] = running_sum.get(key, 0.0) + value
        before = set(state.theta.as_dict())
        state.step(idx, -magnitude, eta)
        if eta * magnitude != 0.0:
            reference[idx] = reference.get(idx, 0.0) + eta * magnitude
            norm = math.sqrt(math.fsum(v * v for v in reference.values()))
            if norm > 1.0:
                reference = {key: v / norm for key, v in reference.items()}
                seen["projections"] += 1

        # the iterate, its norm, and feasibility
        theta = state.theta.as_dict()
        seen["underflows"] += len(before - set(theta))
        for key in set(reference) | set(theta):
            assert close(theta.get(key, 0.0), reference.get(key, 0.0)), key
        assert all(0.0 < value < math.inf for value in theta.values())
        norm = math.sqrt(math.fsum(v * v for v in reference.values()))
        assert close(state.norm(), norm)
        assert state.norm() <= 1.0 + 1e-12

        # the summed weights against a re-sum over theta
        terms = {key: [] for key in state.cache.monomials}
        for t, value in theta.items():
            terms[monomial_key(t)].append(value / state.rho.rho_sq[len(t)])
        resummed = np.array([math.fsum(terms[key]) for key in state.cache.monomials])
        weights = state.support_gram().weights
        drift = np.max(np.abs(weights - resummed), initial=0.0)
        assert drift <= 1e-12 * np.max(resummed, initial=0.0)
        seen["shared"] += sum(len(t) > 1 for t in terms.values())

        # the average against the dense running mean
        average = state.average_theta().as_dict()
        for key in set(running_sum) | set(average):
            assert close(average.get(key, 0.0), running_sum.get(key, 0.0) / k), key

        state.check_combined_gram()


def test_state_matches_dense_reference_over_random_nonpositive_steps():
    seen = {"projections": 0, "underflows": 0, "shared": 0}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(STEPS)
    def check(steps):
        check_against_dense_reference(steps, seen)

    check()
    # the draws reached the paths they are meant to cover
    assert seen["projections"] > 0 and seen["underflows"] > 0 and seen["shared"] > 0, seen
