"""Spot price traces and the Monte-Carlo first-failure model.

A trace is a step function over time: each (timestamp, price) point holds
until the next point.  A spot instance bid at price b is killed the first
moment the market price strictly exceeds b (an out-of-bid event); a price
exactly equal to the bid does not kill it.

The first-failure distribution for a (type, bid) pair is estimated by
walking the trace forward from uniformly random start offsets and recording
how long each walk survives, bucketed on a fixed step grid.  Walks that
reach the trace end or the horizon without failing count as "no failure",
which is the conservative direction for cost estimation.
"""

import math
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property

import numpy as np

from .distributions import substream


# Cells of the guide table that maps a uniform draw to a failure outcome.
_GUIDE_CELLS = 4096


class TraceError(ValueError):
    """Raised for malformed or inconsistent trace files."""


def _parse_timestamp(text):
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text).timestamp()
    except ValueError as exc:
        raise ValueError("bad timestamp %r" % text) from exc


class SpotPriceTrace:
    """Price history of one instance type."""

    def __init__(self, timestamps, prices):
        ts = np.asarray(timestamps, dtype=np.float64)
        pr = np.asarray(prices, dtype=np.float64)
        if ts.size == 0:
            raise TraceError("trace must contain at least one point")
        if ts.size != pr.size:
            raise TraceError("timestamps and prices must have equal length")
        if not np.all(np.isfinite(ts)):
            raise TraceError("timestamps must be finite")
        if np.any(np.diff(ts) <= 0):
            raise TraceError("timestamps must be strictly increasing")
        if not np.all((pr > 0) & np.isfinite(pr)):
            raise TraceError("prices must be positive and finite")
        ts = ts.copy()
        pr = pr.copy()
        ts.flags.writeable = False
        pr.flags.writeable = False
        self.timestamps = ts
        self.prices = pr
        # Duration of the last segment is unknown; extend it by the median
        # sampling interval so cyclic replay gives every point nonzero weight.
        if ts.size > 1:
            tail = float(np.median(np.diff(ts)))
        else:
            tail = 3600.0
        self.start = float(ts[0])
        self.end = float(ts[-1])
        self.span = self.end - self.start
        self.cycle = self.span + tail
        self._exceed_cache = {}

    def __len__(self):
        return int(self.timestamps.size)

    def max_price(self):
        return float(self.prices.max())

    def _segment_index(self, t):
        idx = int(np.searchsorted(self.timestamps, t, side="right")) - 1
        return max(idx, 0)

    def price_at(self, t):
        """Price in effect at absolute trace time t (clamped to the trace)."""
        return float(self.prices[self._segment_index(t)])

    def price_at_cyclic(self, sim_time):
        """Price for simulation time, replaying the trace cyclically.

        Simulation time 0 maps to the first trace timestamp; times beyond
        the trace wrap around with period `cycle`.
        """
        return self.price_at(self.start + (sim_time % self.cycle))

    def _next_exceed_index(self, bid):
        """next_exceed_index(self.prices, bid), memoized per bid."""
        key = float(bid)
        cached = self._exceed_cache.get(key)
        if cached is None:
            cached = self._exceed_cache[key] = next_exceed_index(self.prices, bid)
        return cached

    def first_exceedance_after(self, t, bid):
        """Absolute trace time >= t when the price first exceeds bid.

        Returns t itself when the price at t already exceeds the bid, or
        None when the price never exceeds the bid at or after t.
        """
        nxt = self._next_exceed_index(bid)
        i = self._segment_index(t)
        j = int(nxt[i])
        if j == self.prices.size:
            return None
        if j == i:
            return float(t)
        return float(self.timestamps[j])

    def first_exceedance_cyclic(self, sim_time, bid):
        """Simulation time >= sim_time of the next out-of-bid event.

        None when the bid covers every price in the trace (the instance can
        never be killed).
        """
        if self.max_price() <= bid:
            return None
        offset = sim_time % self.cycle
        base = sim_time - offset
        t = self.start + offset
        hit = self.first_exceedance_after(t, bid)
        if hit is not None and hit - self.start < self.cycle:
            return base + (hit - self.start)
        # Wrap: the first exceeding point from the trace start.
        j = int(self._next_exceed_index(bid)[0])
        return base + self.cycle + (float(self.timestamps[j]) - self.start)


def next_exceed_index(prices, bid):
    """For each point index i, the smallest j >= i with prices[j] > bid.

    Returns a read-only int64 array of length n+1 whose entries equal n
    when no later point exceeds the bid.
    """
    n = prices.size
    nxt = np.full(n + 1, n, dtype=np.int64)
    # Each exceeding point's own index, n elsewhere; a running minimum from
    # the end then gives the nearest exceeding index at or after i.
    own = np.where(prices > bid, np.arange(n), n)
    nxt[:n] = np.minimum.accumulate(own[::-1])[::-1]
    nxt.flags.writeable = False
    return nxt


def load_trace(path):
    """Parse a trace CSV with lines `timestamp,price`.

    Timestamps are epoch seconds or ISO-8601 strings; prices are USD/hour.
    Lines starting with '#' and blank lines are ignored.  Unsorted
    timestamps and malformed lines are rejected with the line number.
    """
    timestamps = []
    prices = []
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
    if not timestamps:
        raise TraceError("%s: trace file contains no points" % path)
    try:
        return SpotPriceTrace(timestamps, prices)
    except TraceError as exc:
        raise TraceError("%s: %s" % (path, exc)) from exc


@dataclass(frozen=True)
class FirstFailureDistribution:
    """Discretized first-failure time distribution for one (type, bid).

    counts[k] is the number of the `trials` walks whose first out-of-bid
    event happens at elapsed time in [k*step, (k+1)*step); the walks left
    over survive the whole horizon (or trace end).
    """

    step: float
    counts: np.ndarray
    trials: int

    def __post_init__(self):
        self.counts.flags.writeable = False

    @property
    def masses(self):
        """Probability of each bucket, counts / trials."""
        return self.counts / float(self.trials)

    @property
    def no_failure_mass(self):
        return float(1.0 - self.masses.sum())

    @property
    def bucket_times(self):
        return np.arange(self.counts.size) * self.step

    @cached_property
    def _failed_before(self):
        """Share of walks failing strictly before grid points 0..len(counts).

        The running count is summed in integers and divided once.
        """
        share = np.concatenate(([0], np.cumsum(self.counts))) / self.trials
        share.flags.writeable = False
        return share

    def cumulative_before(self, times):
        """Probability of failing strictly before each elapsed time t.

        (walks failing at a grid point k*step < t) / trials: exact, at most
        1, and monotone in t and in the bid (every bid shares the walks).
        """
        idx = np.ceil(np.asarray(times, dtype=np.float64) / self.step)
        return self._failed_before[np.clip(idx, 0, self.counts.size).astype(np.int64)]

    @cached_property
    def _outcome_table(self):
        """(cdf, guide) over the outcomes: every bucket, then no failure.

        cdf is the one rng.choice builds from the normalized masses.  Cell
        c of guide covers u in [c, c+1) / cells and holds the number of
        cdf values <= c / cells, or -1 when more than one cdf value falls
        strictly inside the cell.  Built on the first draw, so
        distributions that are only queried for cumulative failure never
        pay for it.
        """
        probs = np.append(self.masses, self.no_failure_mass)
        # Guard against tiny float drift in the probability vector.
        probs = probs / probs.sum()
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
        low = np.searchsorted(cdf, edges[:-1], side="right")
        high = np.searchsorted(cdf, edges[1:], side="left")
        dtype = np.int16 if cdf.size <= np.iinfo(np.int16).max else np.int32
        guide = np.where(high - low <= 1, low, -1).astype(dtype)
        cdf.flags.writeable = False
        guide.flags.writeable = False
        return cdf, guide

    def sample_failure_times(self, rng, n):
        """Draw n first-failure times (bucket start times; inf = no failure).

        Returns what rng.choice(outcomes, size=n, p=probs) returns and
        leaves rng in the same state: one rng.random(n) draw, each u mapped
        to the number of cdf values <= u.  u * cells is exact (cells is a
        power of two), so u's guide cell gives that count up to the one
        cdf value that may lie inside the cell, cdf[low]; cells holding
        more are looked up in the cdf.
        """
        cdf, guide = self._outcome_table
        u = rng.random(n)
        low = guide[(u * _GUIDE_CELLS).astype(np.intp)]
        idx = low + (u >= cdf[low])
        crowded = low < 0
        idx[crowded] = cdf.searchsorted(u[crowded], side="right")
        times = idx * self.step
        times[idx == self.counts.size] = np.inf
        return times


@dataclass
class FailureModel:
    """Monte-Carlo estimator of spot first-failure behaviour per type.

    traces maps instance type id to its price trace; types without a trace
    have no spot market and cannot be refined onto spot instances.
    Estimates are pure given rng_seed (results are memoized per (type, bid)),
    so a model may be shared by concurrent readers once warmed.
    """

    traces: dict
    num_trials: int = 10_000
    horizon: float = 86_400.0
    step: float = 60.0
    rng_seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False)
    _walks: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.num_trials < 1:
            raise ValueError("num_trials must be >= 1")
        if self.step <= 0:
            raise ValueError("step must be positive")

    def has_trace(self, type_id):
        return type_id in self.traces

    def walks(self, type_id):
        """(start times, start segment indices) of the type's trial walks.

        The start-offset stream is keyed by type only, not by bid: every
        bid is evaluated against the same trial walks, which makes
        cumulative failure exactly monotone in the bid instead of monotone
        up to sampling noise.  Drawn once per type.
        """
        cached = self._walks.get(type_id)
        if cached is not None:
            return cached
        trace = self.traces[type_id]
        rng = substream(self.rng_seed, "ffp", type_id)
        if trace.span > 0:
            starts = trace.start + rng.uniform(0.0, trace.span, size=self.num_trials)
        else:
            starts = np.full(self.num_trials, trace.start)
        seg = (np.searchsorted(trace.timestamps, starts, side="right") - 1).astype(np.int32)
        starts.flags.writeable = False
        seg.flags.writeable = False
        self._walks[type_id] = (starts, seg)
        return starts, seg


def estimate_ffp(model, type_id, bid):
    """First-failure distribution of a spot instance of `type_id` bid at `bid`.

    Monte-Carlo over num_trials start offsets drawn uniformly over the trace
    duration (not over point indices, so irregular sampling intervals do not
    bias the estimate).  Each walk fails at the first moment the price
    exceeds the bid, including immediately at the start offset; walks
    reaching the trace end or the horizon count as no-failure.
    """
    if not 0 < bid < math.inf:
        raise ValueError("bid must be positive and finite")
    key = (type_id, float(bid))
    cached = model._cache.get(key)
    if cached is not None:
        return cached

    trace = model.traces[type_id]
    nbuckets = int(math.ceil(model.horizon / model.step))
    starts, seg = model.walks(type_id)
    # Not the trace's memo: this result is memoized per bid in the model.
    nxt = next_exceed_index(trace.prices, bid)
    j = nxt[seg]
    n = trace.prices.size
    elapsed = np.where(
        j == seg, 0.0,
        np.where(j < n, trace.timestamps[np.minimum(j, n - 1)] - starts, np.inf),
    )
    failed = elapsed < model.horizon
    buckets = np.floor(elapsed[failed] / model.step).astype(np.int64)
    counts = np.bincount(buckets, minlength=nbuckets)
    result = FirstFailureDistribution(step=model.step, counts=counts, trials=model.num_trials)
    model._cache[key] = result
    return result


def cumulative_failure(model, type_id, bid, t):
    """Probability that a spot instance fails strictly before elapsed time t."""
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    return float(estimate_ffp(model, type_id, bid).cumulative_before(t))
