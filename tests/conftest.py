import itertools
import math

import numpy as np
import pytest

from spotflow.cloud_model import Catalog, GammaSpec, InstanceType, NormalSpec, TaskProfile
from spotflow.planner_astar import plan_cost, plan_distribution
from spotflow.spot_market import HORIZON, NBUCKETS, STEP, SpotPriceTrace
from spotflow.workflow_dag import build_job, is_feasible


def ordered_catalog(n_types=3, lag_od=0.0, lag_spot=0.0):
    """Fixture catalog where each tier strictly dominates the previous one.

    Speed doubles and price doubles per tier (equal CPU cost), bandwidths
    grow by 1.5x per tier (I/O cost rises with tier), so expected task cost
    is weakly increasing in the type id and faster types stochastically
    dominate slower ones.
    """
    types = []
    for i in range(n_types):
        scale = 1.5 ** i
        types.append(InstanceType(
            i, "t%d" % i, 0.06 * (2 ** i), 1e9 * (2 ** i),
            GammaSpec(100.0, 1.0 * scale), NormalSpec(100.0 * scale, 15.0 * scale),
            GammaSpec(100.0, 1.0 * scale), GammaSpec(100.0, 1.0 * scale),
            lag_od, lag_spot,
        ))
    return Catalog(types)


def save_catalog(catalog, path):
    """Write `catalog` as a catalog CSV that load_catalog reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,ondemand_price,cpu_speed,seq_k,seq_theta,rnd_mu,rnd_sigma,"
                 "in_k,in_theta,out_k,out_theta,lag_ondemand,lag_spot\n")
        for t in catalog:
            fh.write(
                "%d,%s,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g\n"
                % (t.id, t.name, t.ondemand_price, t.cpu_speed,
                   t.seq_io.k, t.seq_io.theta, t.rnd_io.mu, t.rnd_io.sigma,
                   t.net_in.k, t.net_in.theta, t.net_out.k, t.net_out.theta,
                   t.acquisition_lag_ondemand, t.acquisition_lag_spot)
            )


def cpu_profile(seconds, speed=1e9):
    """Profile whose execution time on a type of `speed` is deterministic."""
    return TaskProfile(instructions=seconds * speed)


def mixed_profile(scale=1.0):
    return TaskProfile(instructions=2e11 * scale, seq_io_mb=2000 * scale,
                       rnd_io_mb=100 * scale, net_in_mb=200 * scale,
                       net_out_mb=100 * scale)


def chain_job(profiles, guarantee_p=0.9, class_id="chain", deadline=None):
    edges = [(i, i + 1) for i in range(len(profiles) - 1)]
    return build_job(dict(enumerate(profiles)), edges, deadline=deadline,
                     guarantee_p=guarantee_p, class_id=class_id)


def diamond_job(profiles, guarantee_p=0.9, class_id="diamond", deadline=None):
    """A -> {B, C} -> D with the four given profiles."""
    assert len(profiles) == 4
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    return build_job(dict(enumerate(profiles)), edges, deadline=deadline,
                     guarantee_p=guarantee_p, class_id=class_id)


def brute_force_configure(job, cache):
    """Exhaustive minimum-cost feasible plan; oracle twin of astar_configure.

    Enumerates every type assignment, so only usable for tiny workflows.
    Returns (plan, cost) or (None, inf) when nothing is feasible.  Plans
    are enumerated in lexicographic order and only a strictly cheaper one
    replaces the best, so of the cheapest feasible plans the smallest wins,
    as in the search's (cost, plan) heap.  Reads the search's cache, so
    results are comparable float-for-float.
    """
    best = (None, math.inf)
    for plan in itertools.product(range(len(cache.catalog)), repeat=len(job.tasks)):
        if is_feasible(job, plan_distribution(job, cache, plan)):
            cost = plan_cost(cache, plan)
            if cost < best[1]:
                best = (plan, cost)
    return best


def constant_trace(price, hours=200):
    ts = np.arange(hours) * 3600.0
    return SpotPriceTrace(ts, np.full(hours, price))


def alternating_trace(low=0.05, high=0.15, seg_seconds=3600.0, cycles=200):
    """Periodic trace: `low` for one segment, `high` for the next."""
    ts, pr = [], []
    t = 0.0
    for _ in range(cycles):
        ts.append(t); pr.append(low); t += seg_seconds
        ts.append(t); pr.append(high); t += seg_seconds
    return SpotPriceTrace(ts, pr)


def alternating_offset_oracle(bid, low=0.05, high=0.15, seg_seconds=3600.0, cycles=200):
    """Failure share before each grid point k*STEP, k = 0..NBUCKETS, of walks
    over alternating_trace(low, high, seg_seconds, cycles) from every
    integer start offset.

    An independent hand-walk of the periodic trace: a walk starting in a
    segment whose price exceeds the bid fails at once; one starting in a
    segment the bid covers fails when that segment ends if the other level
    exceeds the bid, and never otherwise.  Walks that fail past the trace
    end (the start of its last segment) or at HORIZON or later count as no
    failure.
    """
    span = (2 * cycles - 1) * seg_seconds
    offsets = np.arange(int(span), dtype=np.float64)
    pos = offsets % (2 * seg_seconds)
    in_high = pos >= seg_seconds
    elapsed = np.where(np.where(in_high, high, low) > bid, 0.0,
                       np.where(np.where(in_high, low, high) > bid,
                                seg_seconds - pos % seg_seconds, np.inf))
    failed = (offsets + elapsed <= span) & (elapsed < HORIZON)
    counts = np.bincount((elapsed[failed] // STEP).astype(np.int64), minlength=NBUCKETS)
    return np.concatenate(([0], np.cumsum(counts))) / offsets.size


def stable_trace(base, jitter=0.1, step_seconds=1800.0, hours=400, seed=0):
    """Low-variance trace fluctuating in [base, base * (1 + jitter)]."""
    rng = np.random.default_rng(seed)
    n = int(hours * 3600 / step_seconds)
    ts = np.arange(n) * step_seconds
    pr = base * (1.0 + jitter * rng.random(n))
    return SpotPriceTrace(ts, pr)


def spiky_trace(base=0.024, spike=3.0, low_hours=5, spike_hours=1, cycles=80):
    """Mostly-low trace with periodic spikes far above on-demand prices."""
    ts, pr = [], []
    t = 0.0
    for _ in range(cycles):
        ts.append(t); pr.append(base); t += low_hours * 3600.0
        ts.append(t); pr.append(spike); t += spike_hours * 3600.0
    return SpotPriceTrace(ts, pr)


@pytest.fixture
def catalog3():
    return ordered_catalog(3)
