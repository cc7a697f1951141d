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
from spotflow.spot_market import SpotPriceTrace, TraceError, _parse_timestamp, load_trace
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


def reference_load_trace(path):
    """load_trace as a line-by-line loop over the file, the one-pass parser's oracle."""
    timestamps = []
    prices = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [p.strip() for p in line.split(",")]
                if parts[0] in ("timestamp", "time"):  # header
                    continue
                if len(parts) != 2:
                    raise TraceError("%s:%d: expected `timestamp,price`" % (path, lineno))
                try:
                    ts = _parse_timestamp(parts[0])
                    price = float(parts[1])
                except ValueError as exc:
                    raise TraceError("%s:%d: %s" % (path, lineno, exc)) from exc
                if timestamps and ts <= timestamps[-1]:
                    raise TraceError(
                        "%s:%d: timestamps must be strictly increasing" % (path, lineno)
                    )
                timestamps.append(ts)
                prices.append(price)
    except UnicodeDecodeError as exc:
        raise TraceError("%s: %s" % (path, exc)) from None
    if not timestamps:
        raise TraceError("%s: trace file contains no points" % path)
    try:
        return SpotPriceTrace(timestamps, prices)
    except TraceError as exc:
        raise TraceError("%s: %s" % (path, exc)) from exc


def outcome(parse, path):
    try:
        trace = parse(str(path))
    except TraceError as exc:
        return "error", str(exc)
    return "trace", trace.timestamps.tolist(), trace.prices.tolist()


def assert_parsed_as_reference(path, data):
    path.write_bytes(data)
    assert outcome(load_trace, path) == outcome(reference_load_trace, path)


def decorated(rows):
    """Row lists joined with a header, comments, blank lines, CRLF endings or none."""
    return st.tuples(
        rows,
        st.sampled_from(["", "timestamp,price\n", " time , price\n", "# prices\n", "\n"]),
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.booleans(),
        st.sampled_from(["", "\n", "\n\n", " \n", "# end\n"]),
    ).map(lambda t: t[1] + t[2].join(t[0]) + (t[2] if t[3] else "") + t[4])


increasing_rows = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(["0.05", "1", " 0.5 ", "1e-3", "nan",
                                                       "inf", "0", "-1", "x", "2e400"])),
    min_size=1, max_size=8,
).map(lambda rows: ["%d,%s" % (i * 60 + t % 60, price) for i, (t, price) in enumerate(rows)])
unsorted_rows = st.lists(st.tuples(st.integers(-3, 3), st.floats(0.01, 2.0)), max_size=8).map(
    lambda rows: ["%d,%r" % row for row in rows])


@settings(max_examples=300, deadline=None)
@given(text=trace_text | decorated(increasing_rows) | decorated(unsorted_rows)
       | decorated(st.lists(trace_text, max_size=3)))
def test_trace_parser_matches_the_line_loop(scratch, text):
    assert_parsed_as_reference(scratch, text.encode("utf-8"))


@pytest.mark.parametrize("text", [
    "0,0.05\n1800,0.06\n3600,0.04\n",
    "0,0.05\n1800,0.06",  # no final newline
    "timestamp,price\n0,0.05\n1800,0.06\n",
    "# comment\n\n0,0.05\n\n1800,0.06\n# tail",
    "0,0.05\r\n1800,0.06\r\n",
    "2013-08-01T00:00:00,0.05\n2013-08-01T00:30:00,0.06\n",
    "0,0.05\n2013-08-01T00:30:00,0.06\n",
    "1800,0.05\n0,0.06\n",  # unsorted
    "0,0.05\n0,0.06\n",
    "0,nan\n1800,0.06\n",
    "nan,0.05\n1800,0.06\n",
    "inf,0.05\ninf,0.06\n",
    "0,0.05,1\n1800\n",  # three fields, then one: two commas over two rows
    "0,0.05\n1800,0.06\ntimestamp,price\n",
    " 0 , 0.05 \n\x1c1800,0.06\x1c\n",
    "",
    "\n",
    "timestamp,price\n",
    "0,0.05\n\n\n",
])
def test_trace_parser_matches_the_line_loop_on_edge_files(tmp_path, text):
    assert_parsed_as_reference(tmp_path / "trace.csv", text.encode("utf-8"))


@pytest.mark.parametrize("bad_line", [True, False])
def test_trace_parser_names_what_the_line_loop_meets_first_in_undecodable_files(
        tmp_path, bad_line):
    # The undecodable byte lies past the first 8 KiB the line loop decodes.
    head = "".join("%d,0.05\n" % (60 * i) for i in range(2000))
    data = ("0,1,2\n" if bad_line else "") + head
    assert_parsed_as_reference(tmp_path / "trace.csv", data.encode("utf-8") + b"\xff\n")
