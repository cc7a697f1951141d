"""Spot price traces and the Monte-Carlo first-failure model.

A trace is a step function over time: each (timestamp, price) point holds
until the next point.  A spot instance bid at price b is killed the first
moment the market price strictly exceeds b (an out-of-bid event); a price
exactly equal to the bid does not kill it.

The first-failure distribution for a (type, bid) pair is estimated by
walking the trace forward from uniformly random start offsets and recording
how long each walk survives, bucketed on one fixed grid of NBUCKETS steps
of STEP seconds.  Walks that reach the trace end or HORIZON without failing
count as "no failure", which is the conservative direction for cost
estimation.
"""

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .cloud_model import CLOCK_BOUND
from .distributions import _paired, substream


# The first-failure grid: one-minute buckets over one day.
STEP = 60.0
NBUCKETS = 1440
HORIZON = STEP * NBUCKETS


class TraceError(ValueError):
    """Raised for malformed or inconsistent trace files."""


def _parse_timestamp(text):
    """Epoch seconds of a number or an ISO-8601 string; a string without a
    UTC offset is read as UTC, so no reading depends on the local time zone."""
    try:
        return float(text)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValueError("bad timestamp %r" % text) from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


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
        if np.any(ts[1:] <= ts[:-1]):
            raise TraceError("timestamps must be strictly increasing")
        if not np.all((pr > 0) & np.isfinite(pr)):
            raise TraceError("prices must be positive and finite")
        self.start = float(ts[0])
        self.span = float(ts[-1]) - self.start
        # Duration of the last segment is unknown; extend it by the median
        # sampling interval so cyclic replay gives every point nonzero weight.
        # No interval exceeds the span, so a span below the bound has finite intervals.
        tail = 3600.0 if ts.size == 1 or self.span >= CLOCK_BOUND else float(np.median(np.diff(ts)))
        self.cycle = self.span + tail
        if not self.cycle < CLOCK_BOUND:
            raise TraceError("trace cycle (span plus median interval) must be below %g s"
                             % CLOCK_BOUND)
        # One copy of each column, as a compact array: the simulator's
        # per-event lookups bisect and index it, which gives plain floats,
        # and the read-only numpy arrays the planner reads are views of it.
        self._times = array("d", ts.tobytes())
        self._prices = array("d", pr.tobytes())
        ts = np.frombuffer(self._times)
        pr = np.frombuffer(self._prices)
        ts.flags.writeable = False
        pr.flags.writeable = False
        self.timestamps = ts
        self.prices = pr
        self._exceed_cache = {}

    def _segment_index(self, t):
        """Index of the point in effect at trace time t (0 before the first point)."""
        return max(bisect_right(self._times, t) - 1, 0)

    def price_at(self, t):
        """Price in effect at absolute trace time t (clamped to the trace)."""
        return self._prices[self._segment_index(t)]

    def price_at_cyclic(self, sim_time):
        """Price for simulation time, replaying the trace cyclically.

        Simulation time 0 maps to the first trace timestamp; times beyond
        the trace wrap around with period `cycle`.
        """
        return self.price_at(self.start + (sim_time % self.cycle))

    def _next_exceed_index(self, bid):
        """next_exceed_index(self.prices, bid) as an `array("q")`, memoized per bid."""
        key = float(bid)
        cached = self._exceed_cache.get(key)
        if cached is None:
            cached = array("q", next_exceed_index(self.prices, bid).tobytes())
            self._exceed_cache[key] = cached
        return cached

    def first_exceedance_cyclic(self, sim_time, bid):
        """Simulation time >= sim_time of the next out-of-bid event.

        None when the bid covers every price in the trace (the instance can
        never be killed).
        """
        nxt = self._next_exceed_index(bid)
        n = len(nxt) - 1
        first = nxt[0]
        if first == n:
            return None
        offset = sim_time % self.cycle
        base = sim_time - offset
        t = self.start + offset
        i = self._segment_index(t)
        j = nxt[i]
        if j == i:  # the price at t already exceeds the bid
            return base + (t - self.start)
        if j < n:
            return base + (self._times[j] - self.start)
        # Wrap: the first exceeding point from the trace start.
        return base + self.cycle + (self._times[first] - self.start)


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

    Timestamps are epoch seconds or ISO-8601 strings (read as UTC when they
    carry no offset); prices are USD/hour.
    Lines starting with '#' and blank lines are ignored, as is a header
    line (first field `timestamp` or `time`).  Unsorted timestamps and
    malformed lines are rejected with the line number.

    A file of numeric rows, with at most a header line first, is parsed
    in one pass over the whole text (_parse_rows); any other file, and one
    that fails that pass, is walked line by line (_walk_lines), which also
    names the first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        # Walk the file as it decodes, so that a bad line ahead of the
        # undecodable bytes is named first, with the decoder's own message.
        try:
            with open(path, "r", encoding="utf-8") as fh:
                points = _walk_lines(fh, path)
        except UnicodeDecodeError as exc:
            raise TraceError("%s: %s" % (path, exc)) from None
    else:
        points = _parse_rows(text) or _walk_lines(text.split("\n"), path)
    if len(points[0]) == 0:
        raise TraceError("%s: trace file contains no points" % path)
    try:
        return SpotPriceTrace(*points)
    except TraceError as exc:
        raise TraceError("%s: %s" % (path, exc)) from exc


def _parse_rows(text):
    """(timestamps, prices) arrays when every line is a `number,number` row.

    The first line may be a header and the text may end in a newline.
    None for any other text, or when a timestamp does not exceed the one
    before it, so that the line walk names the line.
    """
    body = text[:-1] if text.endswith("\n") else text
    first, _, rest = body.partition("\n")
    if first.split(",", 1)[0].strip() in ("timestamp", "time"):
        body = rest
    # One comma per row: the separators alternate ',' '\n' ',' ... ','.
    codes = np.frombuffer(body.encode("utf-8"), np.uint8)
    seps = codes[(codes == ord(",")) | (codes == ord("\n"))]
    if seps.size % 2 == 0 or np.any(seps[0::2] != ord(",")) or np.any(seps[1::2] != ord("\n")):
        return None
    fields = body.replace("\n", ",").split(",")
    try:
        values = np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        return None
    ts, prices = values[0::2], values[1::2]
    if np.any(ts[1:] <= ts[:-1]):
        return None
    return ts, prices


def _walk_lines(lines, path):
    """(timestamps, prices) lists of the data lines of a trace, in order.

    Raises TraceError naming the first line that is not `timestamp,price`,
    fails to parse, or does not advance the timestamp.
    """
    timestamps = []
    prices = []
    for lineno, raw in enumerate(lines, start=1):
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
    return timestamps, prices


def grid_index(times):
    """Index k of the first grid point k*STEP at or after each elapsed time.

    Clipped to [0, NBUCKETS].  A walk recorded in bucket j fails strictly
    before t exactly when j < k, so the failure share before t is the
    share of walks in buckets 0..k-1.
    """
    idx = np.ceil(np.asarray(times, dtype=np.float64) / STEP)
    return np.clip(idx, 0, NBUCKETS).astype(np.int64)


@dataclass(frozen=True)
class FirstFailureDistribution:
    """Discretized first-failure time distribution for one (type, bid).

    failed_before[k] is the share of trials whose first out-of-bid event
    happens strictly before grid point k*STEP, for k = 0..NBUCKETS: 0 at
    k = 0, never decreasing, and at most 1.  The trials left over at
    k = NBUCKETS survive HORIZON (or the trace end).  Both refinement gates
    read this one array: the cost gate weights the on-demand fallback by
    it, and the timing gate draws failure times from it.
    """

    failed_before: np.ndarray

    def __post_init__(self):
        if self.failed_before.shape != (NBUCKETS + 1,):
            raise ValueError("failed_before must hold %d grid points, got shape %s"
                             % (NBUCKETS + 1, self.failed_before.shape))
        self.failed_before.flags.writeable = False

    def cumulative_before(self, times):
        """Probability of failing strictly before each elapsed time t.

        failed_before at t's grid index: at most 1, and monotone in t and
        in the bid (every bid shares the walks).  `times` is one time or an
        array of them; a negative or NaN time is a ValueError.
        """
        times = np.asarray(times, dtype=np.float64)
        if not np.all(times >= 0):
            raise ValueError("times must be nonnegative")
        return self.failed_before[grid_index(times)]


@dataclass
class FailureModel:
    """Monte-Carlo estimator of spot first-failure behaviour per type.

    traces maps instance type id to its price trace; types without a trace
    have no spot market and cannot be refined onto spot instances, and a
    model without traces stands for no spot market at all.
    Estimates are pure given rng_seed (results are memoized per (type, bid)),
    so a model may be shared by concurrent readers once warmed.
    """

    traces: dict
    num_trials: int = 10_000
    rng_seed: int = 0
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _walks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # fallback_time_sum's one-entry memo: ((spot dist, on-demand dist), W).
    _bucket_memo: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_trials < 1:
            raise ValueError("num_trials must be >= 1")

    def has_trace(self, type_id):
        return type_id in self.traces

    def fallback_time_sum(self, ffp, spot_dist, od_dist):
        """sum_k F_k * W_k: F_k is ffp's share of walks failing before grid
        point k, W_k sums the on-demand samples whose paired spot sample has
        grid index k.  W does not depend on the bid: the last pair's W is
        kept and serves a whole bid search.
        """
        key, weights = self._bucket_memo
        if key is None or key[0] is not spot_dist or key[1] is not od_dist:
            spot, od = _paired((spot_dist, od_dist))
            weights = np.bincount(grid_index(spot), weights=od, minlength=NBUCKETS + 1)
            weights.flags.writeable = False
            self._bucket_memo = ((spot_dist, od_dist), weights)
        return float(np.dot(ffp.failed_before, weights))

    def walks(self, type_id):
        """(start times, start segment indices) of the type's trial walks.

        The start-offset stream is keyed by type only, not by bid: every
        bid is evaluated against the same trial walks, which makes
        cumulative failure exactly monotone in the bid instead of monotone
        up to sampling noise.  Drawn once per type, and sorted: estimates
        count walks, which does not depend on their order, and sorted keys
        locate their trace segments faster.
        """
        cached = self._walks.get(type_id)
        if cached is not None:
            return cached
        trace = self.traces[type_id]
        rng = substream(self.rng_seed, "ffp", type_id)
        if trace.span > 0:
            starts = np.sort(trace.start + rng.uniform(0.0, trace.span, size=self.num_trials))
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
    reaching the trace end or HORIZON count as no-failure.
    """
    if not 0 < bid < math.inf:
        raise ValueError("bid must be positive and finite")
    key = (type_id, float(bid))
    cached = model._cache.get(key)
    if cached is not None:
        return cached

    trace = model.traces[type_id]
    starts, seg = model.walks(type_id)
    nxt = np.frombuffer(trace._next_exceed_index(bid), dtype=np.int64)
    j = nxt[seg]
    n = trace.prices.size
    elapsed = np.where(
        j == seg, 0.0,
        np.where(j < n, trace.timestamps[np.minimum(j, n - 1)] - starts, np.inf),
    )
    failed = elapsed < HORIZON
    buckets = np.floor(elapsed[failed] / STEP).astype(np.int64)
    counts = np.bincount(buckets, minlength=NBUCKETS)
    # The running count is summed in integers and divided once.
    failed_before = np.concatenate(([0], np.cumsum(counts))) / model.num_trials
    result = FirstFailureDistribution(failed_before)
    model._cache[key] = result
    return result
