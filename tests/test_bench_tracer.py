"""The benchmark's per-layer tracer still finds every name it wraps.

bench/tracing.py patches program functions by name (workflow_dag.convolve,
planner_astar.workflow_time_distribution, each module's substream, ...) and
raises MissingTarget for a name the program no longer has.  Entering a
Tracer here turns a rename into a test failure.
"""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def test_tracer_installs_and_restores_every_target(tracing):
    from spotflow import distributions, planner_astar, workflow_dag

    originals = (workflow_dag.convolve, workflow_dag.max_of,
                 planner_astar.workflow_time_distribution, distributions.substream)
    with tracing.Tracer() as tracer:
        assert workflow_dag.convolve is not originals[0]
        assert tracer.names
    assert (workflow_dag.convolve, workflow_dag.max_of,
            planner_astar.workflow_time_distribution, distributions.substream) == originals
