"""Fuzzed invariants of the distribution core and of the JSON writer."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spotflow.distributions import EmpiricalDistribution, convolve, dominates
from spotflow.planner_astar import json_text

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
    assert c.sorted_samples[0] >= a.sorted_samples[0] + b.sorted_samples[0] - 1e-9
    assert c.sorted_samples[-1] <= a.sorted_samples[-1] + b.sorted_samples[-1] + 1e-9
    assert math.isclose(c.expectation(), a.expectation() + b.expectation(),
                        rel_tol=0, abs_tol=1e-6)


@given(finite_samples, st.floats(min_value=1e-6, max_value=1e3))
@settings(max_examples=200)
def test_dominance_of_shifted_copies(values, shift):
    d = EmpiricalDistribution(values)
    slower = EmpiricalDistribution(np.asarray(values) + shift)
    assert dominates(d, slower, 0.0)
    assert not dominates(slower, d, 0.0)


# A string that reads like the object boundary json_text re-splices.
SPLICE_LOOKALIKE = "},\n  {"
json_strings = st.one_of(st.text(max_size=8), st.sampled_from(
    [SPLICE_LOOKALIKE, '"},\n    {"', "\\n\t\"\\", "\u00e9\u2028\U0001f600\x00\x7f"]))
json_scalars = st.one_of(
    st.none(), st.booleans(), st.floats(),
    st.sampled_from([-0.0, 1e300, math.inf, -math.inf, math.nan]),
    st.integers(), st.integers(min_value=2**63, max_value=2**70),
    json_strings)


def json_values(depth):
    """JSON values nested up to `depth` containers deep."""
    if depth == 0:
        return json_scalars
    inner = json_values(depth - 1)
    return st.one_of(
        json_scalars,
        st.lists(inner, max_size=4),
        st.dictionaries(json_strings, inner, max_size=4),
        # lists of flat objects, empty ones among them
        st.lists(st.dictionaries(json_strings, json_scalars, max_size=3), max_size=4),
        # keys that are not str
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    )


@given(json_values(4))
@settings(max_examples=500)
@example({})
@example([[], {}, [{}], [{"a": 1}, {}]])
@example([{"a": SPLICE_LOOKALIKE}, {"b": [-0.0, 1e300, math.inf, math.nan, True, None, 2**64]}])
def test_json_text_is_json_dumps_sorted_and_indented(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("path", sorted((pathlib.Path(__file__).parent / "data").glob("*.json")),
                         ids=lambda path: path.name)
def test_json_text_reproduces_every_json_file_in_the_test_data(path):
    text = path.read_text(encoding="utf-8")
    assert json_text(json.loads(text)) + "\n" == text
