"""Fuzzed input parsers: every input parses or fails with an exit-2 error.

`spotflow` turns the exception types in cli.PARSE_ERRORS into exit code 2
with a one-line message.  Each test feeds generated text to one of the five
parsers that read user files (the --spec JSON, the workflow file, the trace
CSV, the catalog CSV and the plan cache) and accepts a parsed result or one
of those errors.  Any other exception would reach the user as a traceback.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotflow import cli
from spotflow.cloud_model import load_catalog
from spotflow.planner_astar import load_plan_cache
from spotflow.spot_market import load_trace
from spotflow.workflow_dag import load_workflow

FUZZ = settings(max_examples=60, deadline=None)

free_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
numbers = st.one_of(
    st.floats().map(repr),  # includes 'nan', 'inf' and '-inf'
    st.integers(-10, 10**20).map(str),
    st.sampled_from(["0", "1", "1e9", "100", "1e400", "-0", "", "x",
                     "2013-08-01T00:00:00", "0001-01-01"]),
)


def lines(line):
    return st.lists(st.one_of(line, free_text), max_size=6).map("\n".join)


workflow_text = lines(st.one_of(
    st.lists(numbers, min_size=4, max_size=7).map(lambda xs: "task " + " ".join(xs)),
    st.lists(st.sampled_from(["0", "1", "1e9", "100"]), min_size=5, max_size=5)
    .map(lambda xs: "task " + " ".join(xs)),
    st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(lambda uv: "edge %d %d" % uv),
    st.tuples(numbers, numbers).map(lambda uv: "edge %s %s" % uv),
))

trace_text = lines(st.one_of(
    st.tuples(numbers, numbers).map(",".join),
    st.tuples(st.integers(0, 10**6), numbers).map(lambda tp: "%d,%s" % tp),
))


def catalog_row(index, mutation):
    fields = ("%d,t%d,%g,1e9,100,1,100,10,100,1,100,1,0,0"
              % (index, index, 0.06 * 2 ** index)).split(",")
    if mutation is not None:
        position, value = mutation
        fields[position] = value
    return ",".join(fields)


catalog_text = st.one_of(
    st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 13), numbers)), max_size=4)
    .map(lambda muts: "\n".join(catalog_row(i, m) for i, m in enumerate(muts))),
    lines(st.lists(numbers, min_size=12, max_size=15).map(",".join)),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=5,
)
spec_text = st.one_of(
    st.dictionaries(st.sampled_from(sorted(cli.ExperimentSpec.__dataclass_fields__))
                    | st.text(max_size=8), json_values, max_size=4).map(json.dumps),
    json_values.map(json.dumps),
    free_text,
)



def mutated(valid):
    """A valid value, or any JSON value in its place."""
    return st.one_of(valid, json_values)


def some_keys(fields):
    """An object with all of fields' keys, or with any subset of them."""
    return st.one_of(st.fixed_dictionaries(fields), st.fixed_dictionaries({}, optional=fields))


plan_dim = some_keys({
    "type_id": mutated(st.integers(-2, 5)),
    "price": mutated(st.sampled_from([0.06, 1000.0, 0.0, -1.0, math.nan, math.inf, 1e400])),
    "is_spot": mutated(st.booleans()),
})
plan_record = some_keys({
    "deadline": mutated(st.floats() | st.integers(-1, 10**400)),
    "guarantee_p": mutated(st.floats(-0.5, 1.5)),
    "tasks": mutated(st.lists(mutated(st.lists(mutated(plan_dim), max_size=3)), max_size=3)),
})
plan_cache_text = st.one_of(
    some_keys({
        "format": mutated(st.just("plan-cache/1")),
        "classes": mutated(st.dictionaries(st.text(max_size=5), mutated(plan_record),
                                           max_size=2)),
    }).map(json.dumps),
    free_text,
)


def parse_spec(path):
    return cli._spec_from_args(cli.build_parser().parse_args(["plan", "--spec", path]))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def parses_or_exit_2(parse, path, text):
    path.write_text(text, encoding="utf-8")
    try:
        parse(str(path))
    except cli.PARSE_ERRORS:
        pass


@FUZZ
@given(text=spec_text)
def test_spec_parser(scratch, text):
    parses_or_exit_2(parse_spec, scratch, text)


@FUZZ
@given(text=workflow_text)
def test_workflow_parser(scratch, text):
    parses_or_exit_2(load_workflow, scratch, text)


@FUZZ
@given(text=trace_text)
def test_trace_parser(scratch, text):
    parses_or_exit_2(load_trace, scratch, text)


@FUZZ
@given(text=catalog_text)
def test_catalog_parser(scratch, text):
    parses_or_exit_2(load_catalog, scratch, text)


@FUZZ
@given(text=plan_cache_text)
def test_plan_cache_parser(scratch, text):
    parses_or_exit_2(load_plan_cache, scratch, text)
