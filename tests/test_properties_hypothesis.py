"""Fuzzed invariants of the distribution core."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spotflow.distributions import EmpiricalDistribution, convolve, dominates

finite_sample = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                          allow_infinity=False)
finite_samples = st.lists(finite_sample, min_size=2, max_size=64)


@st.composite
def equal_length_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=64))
    same_size = st.lists(finite_sample, min_size=n, max_size=n)
    return draw(same_size), draw(same_size)


def reference_nearest_rank(values, q):
    ordered = sorted(values)
    for i, v in enumerate(ordered, start=1):
        if i / len(ordered) >= q:
            return v
    return ordered[-1]


@given(finite_samples, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300)
def test_percentile_matches_reference_nearest_rank(values, q):
    d = EmpiricalDistribution(values)
    assert d.percentile(q) == reference_nearest_rank(values, q)


@given(equal_length_pairs())
@settings(max_examples=200)
def test_convolve_bounds_and_mean(pair):
    a = EmpiricalDistribution(pair[0])
    b = EmpiricalDistribution(pair[1])
    c = convolve(a, b)
    assert c.min_value() >= a.min_value() + b.min_value() - 1e-9
    assert c.max_value() <= a.max_value() + b.max_value() + 1e-9
    assert math.isclose(c.expectation(), a.expectation() + b.expectation(),
                        rel_tol=0, abs_tol=1e-6)


@given(finite_samples, st.floats(min_value=1e-6, max_value=1e3))
@settings(max_examples=200)
def test_dominance_of_shifted_copies(values, shift):
    d = EmpiricalDistribution(values)
    slower = EmpiricalDistribution(np.asarray(values) + shift)
    assert dominates(d, slower, 0.0)
    assert not dominates(slower, d, 0.0)
