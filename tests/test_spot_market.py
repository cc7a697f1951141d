import calendar
import math
import time

import numpy as np
import pytest

from spotflow.distributions import EmpiricalDistribution, substream
from spotflow.spot_market import (
    HORIZON,
    NBUCKETS,
    STEP,
    FailureModel,
    FirstFailureDistribution,
    SpotPriceTrace,
    TraceError,
    estimate_ffp,
    load_trace,
    next_exceed_index,
)

from conftest import (
    alternating_offset_oracle,
    alternating_trace,
    constant_trace,
    counts_with_gaps,
    ffp_from_counts,
    spiky_trace,
    stable_trace,
)


class TestLoadTrace:
    def test_three_line_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0.05\n3600,0.06\n7200,0.05\n")
        trace = load_trace(path)
        assert trace.timestamps.size == 3
        assert trace.price_at(3600) == 0.06

    def test_iso8601_timestamps(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("2013-08-01T00:00:00,0.05\n2013-08-01T01:00:00,0.06\n")
        trace = load_trace(path)
        assert trace.timestamps.size == 2

    @pytest.mark.parametrize("zone", ["UTC", "America/New_York"])
    def test_naive_iso_timestamps_are_read_as_utc(self, tmp_path, monkeypatch, zone):
        # New York springs forward at 02:00 on 2013-03-10, so read in that
        # zone the 01:00 and 03:00 points would lie one hour apart, not two.
        # A timestamp with a UTC offset keeps it.
        naive, aware = tmp_path / "naive.csv", tmp_path / "aware.csv"
        naive.write_text("".join("2013-03-10T%02d:00:00,0.05\n" % h for h in (0, 1, 3, 4)))
        aware.write_text("2013-03-10T00:00:00-05:00,0.05\n2013-03-10T03:00:00-04:00,0.06\n")
        monkeypatch.setenv("TZ", zone)
        time.tzset()
        try:
            traces = load_trace(naive), load_trace(aware)
        finally:
            monkeypatch.undo()
            time.tzset()
        midnight = calendar.timegm((2013, 3, 10, 0, 0, 0))
        assert (traces[0].timestamps - midnight).tolist() == [0, 3600, 10800, 14400]
        assert (traces[1].timestamps - midnight).tolist() == [18000, 25200]

    def test_unsorted_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0.05\n7200,0.06\n3600,0.05\n")
        with pytest.raises(TraceError, match=":3:"):
            load_trace(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0.05\nnot-a-line\n")
        with pytest.raises(TraceError, match=":2:"):
            load_trace(path)

    def test_august_shaped_stats(self, tmp_path):
        # Shape of the published August-2013 m1.small history: min 0.007, max 10.
        rng = np.random.default_rng(0)
        ts = np.arange(500) * 3600.0
        prices = np.clip(rng.gamma(2.0, 0.03, 500), 0.008, 9.0)
        prices[17] = 0.007
        prices[401] = 10.0
        path = tmp_path / "small.csv"
        path.write_text("".join("%d,%.4f\n" % (t, p) for t, p in zip(ts, prices)))
        trace = load_trace(path)
        assert trace.prices.min() == pytest.approx(0.007)
        assert trace.prices.max() == pytest.approx(10.0)


def searchsorted_price_at(trace, t):
    i = max(int(np.searchsorted(trace.timestamps, t, side="right")) - 1, 0)
    return float(trace.prices[i])


def searchsorted_price_at_cyclic(trace, sim_time):
    return searchsorted_price_at(trace, trace.start + (sim_time % trace.cycle))


def searchsorted_first_exceedance_cyclic(trace, sim_time, bid):
    # The cyclic out-of-bid rule on the numpy arrays, by np.searchsorted.
    nxt = next_exceed_index(trace.prices, bid)
    n = trace.prices.size
    first = int(nxt[0])
    if first == n:
        return None
    offset = sim_time % trace.cycle
    base = sim_time - offset
    t = trace.start + offset
    i = max(int(np.searchsorted(trace.timestamps, t, side="right")) - 1, 0)
    j = int(nxt[i])
    if j == i:
        return base + (float(t) - trace.start)
    if j < n:
        return base + (float(trace.timestamps[j]) - trace.start)
    return base + trace.cycle + (float(trace.timestamps[first]) - trace.start)


class TestPriceLookups:
    def test_step_function(self):
        trace = SpotPriceTrace([0, 100, 200], [0.05, 0.10, 0.07])
        assert trace.price_at(0) == 0.05
        assert trace.price_at(99) == 0.05
        assert trace.price_at(100) == 0.10
        assert trace.price_at(250) == 0.07

    def test_cyclic_replay(self):
        trace = SpotPriceTrace([0, 100], [0.05, 0.10])
        assert trace.price_at_cyclic(0) == 0.05
        assert trace.price_at_cyclic(150) == 0.10
        # cycle = span (100) + median interval (100) = 200
        assert trace.price_at_cyclic(200) == 0.05
        assert trace.price_at_cyclic(350) == 0.10

    def test_first_exceedance_cyclic(self):
        trace = SpotPriceTrace([0, 100, 200], [0.05, 0.20, 0.05])
        assert trace.first_exceedance_cyclic(0, 0.10) == 100.0
        assert trace.first_exceedance_cyclic(100, 0.10) == 100.0
        assert trace.first_exceedance_cyclic(150, 0.10) == 150.0  # inside the spike
        # past the spike: wraps into the next cycle's spike (cycle = 300)
        assert trace.first_exceedance_cyclic(200, 0.10) == 400.0
        assert trace.first_exceedance_cyclic(0, 0.30) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_lookups_match_the_searchsorted_rule(self, seed):
        # The compact-array lookups against the numpy rule they replace, on
        # irregular traces (1 to 40 points, prices from a small set so some
        # equal a bid) at exact timestamps, before the first point, on the
        # last segment and across the wrap, with int and float times.
        rng = np.random.default_rng(seed)
        n = (1, 2, 3, 7, 40, 40)[seed]
        start = (0.0, 1.0e9, 17.25, 0.0, 1.0e9 + 0.5, 3600.0)[seed]
        ts = start + np.cumsum(np.r_[0.0, rng.uniform(1.0, 4000.0, n - 1)])
        prices = rng.choice([0.02, 0.05, 0.05, 0.3], size=n)
        trace = SpotPriceTrace(ts, prices)
        offsets = (ts - trace.start).tolist()
        points = [*offsets, *(x - 0.5 for x in offsets), *(x + 0.5 for x in offsets),
                  -1.0, -0.25, trace.span, (trace.span + trace.cycle) / 2, trace.cycle - 1e-6,
                  *(trace.cycle + x for x in offsets),
                  *(3 * trace.cycle + x + 1.0 for x in offsets),
                  *rng.uniform(-trace.cycle, 5 * trace.cycle, 50).tolist()]
        points += [int(math.floor(x)) for x in points]
        for x in points:
            assert trace.price_at(start + x) == searchsorted_price_at(trace, start + x)
            assert trace.price_at_cyclic(x) == searchsorted_price_at_cyclic(trace, x)
            for bid in (0.01, 0.02, 0.05, 0.1, 0.3, 1.0):
                got = trace.first_exceedance_cyclic(x, bid)
                assert got == searchsorted_first_exceedance_cyclic(trace, x, bid), (x, bid)
                assert type(got) in (float, type(None))

    def test_rejects_bad_traces(self):
        with pytest.raises(TraceError):
            SpotPriceTrace([0, 0], [0.05, 0.06])
        with pytest.raises(TraceError):
            SpotPriceTrace([0, 100], [0.05, -0.1])
        with pytest.raises(TraceError):
            SpotPriceTrace([], [])
        for bad in (math.nan, math.inf):
            with pytest.raises(TraceError, match="prices must be positive and finite"):
                SpotPriceTrace([0, 100], [0.05, bad])
            with pytest.raises(TraceError, match="timestamps must be finite"):
                SpotPriceTrace([0, bad], [0.05, 0.06])
        # A span, or a span plus its median interval, past the largest float or
        # the clock bound.
        for timestamps, prices in (([-1e308, 1e308], [0.02, 0.5]), ([0, 1e308], [0.5, 0.02]),
                                   ([0, 1e19], [0.5, 0.02])):
            with pytest.raises(TraceError, match=r"trace cycle \(span plus median interval\)"):
                SpotPriceTrace(timestamps, prices)


class TestEstimateFfp:
    def test_constant_low_never_fails(self):
        model = FailureModel(traces={0: constant_trace(0.05)}, num_trials=2000, rng_seed=1)
        dist = estimate_ffp(model, 0, 0.10)
        assert not dist.failed_before.any()

    def test_constant_high_fails_at_zero(self):
        model = FailureModel(traces={0: constant_trace(0.20)}, num_trials=2000, rng_seed=1)
        dist = estimate_ffp(model, 0, 0.10)
        assert dist.failed_before[0] == 0.0
        assert np.all(dist.failed_before[1:] == 1.0)

    def test_masses_sum_to_one(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=5000, rng_seed=2)
        shares = estimate_ffp(model, 0, 0.10).failed_before
        # Bucket masses are the steps of the shares, the no-failure mass what
        # is left at the last grid point.
        masses = np.diff(shares)
        assert shares[0] == 0.0
        assert np.all(masses >= 0.0)
        assert masses.sum() + (1.0 - shares[-1]) == pytest.approx(1.0, abs=1e-9)

    def test_alternating_matches_offset_oracle(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=10_000, rng_seed=3)
        dist = estimate_ffp(model, 0, 0.10)
        oracle = alternating_offset_oracle(0.10)
        for t_query in (60.0, 1800.0, 3600.0, 5400.0, 7200.0):
            want = oracle[math.ceil(t_query / STEP)]
            assert dist.cumulative_before(t_query) == pytest.approx(want, abs=0.02), t_query

    def test_rejects_nonpositive_bid(self):
        model = FailureModel(traces={0: constant_trace(0.05)}, num_trials=10)
        with pytest.raises(ValueError):
            estimate_ffp(model, 0, 0.0)

    def test_rejects_non_finite_bid(self):
        model = FailureModel(traces={0: constant_trace(0.05)}, num_trials=10)
        for bid in (math.nan, math.inf):
            with pytest.raises(ValueError, match="bid must be positive and finite"):
                estimate_ffp(model, 0, bid)

    def test_counts_off_the_grid_are_rejected(self):
        for shape in (0, 1, NBUCKETS, NBUCKETS + 2, (1, NBUCKETS + 1)):
            with pytest.raises(ValueError, match="failed_before must hold 1441 grid points"):
                FirstFailureDistribution(np.zeros(shape))

    def test_deterministic_for_seed(self):
        model_a = FailureModel(traces={0: alternating_trace()}, num_trials=3000, rng_seed=9)
        model_b = FailureModel(traces={0: alternating_trace()}, num_trials=3000, rng_seed=9)
        da = estimate_ffp(model_a, 0, 0.10)
        db = estimate_ffp(model_b, 0, 0.10)
        assert np.array_equal(da.failed_before, db.failed_before)


    def test_bid_order_does_not_matter(self):
        # Bids inside each trace's price range, one equal to a price, and
        # two within 1e-9 of each other.
        requests = [(0, b) for b in (0.06, 0.024, 0.5, 0.03, 0.024000000001, 3.5)]
        requests += [(1, b) for b in (0.051, 0.053, 0.0545, 0.06, 0.04)]

        def model():
            return FailureModel(traces={0: spiky_trace(), 1: stable_trace(0.05)},
                                num_trials=4000, rng_seed=8)

        by_bid = sorted(requests, key=lambda r: r[1])  # types interleaved
        for m, order in ((model(), requests), (model(), requests[::-1]), (model(), by_bid)):
            for type_id, bid in order:
                got = estimate_ffp(m, type_id, bid)
                alone = estimate_ffp(model(), type_id, bid)
                assert got.failed_before.tobytes() == alone.failed_before.tobytes(), (
                    type_id, bid)

    @pytest.mark.parametrize("first", [0, 1])
    def test_bids_a_hair_apart_across_a_price_keep_their_own_results(self, first):
        # 0.024 is below the high price and 0.0240000000004 above it; they
        # agree to nine decimals.
        trace = alternating_trace(low=0.01, high=0.0240000000002)
        model = FailureModel(traces={0: trace}, num_trials=2000, rng_seed=4)
        below, above = 0.024, 0.0240000000004
        order = (below, above) if first == 0 else (above, below)
        got = {bid: estimate_ffp(model, 0, bid).failed_before[-1] for bid in order}
        assert got[below] > 0.99
        assert got[above] == 0.0
        exceed = {bid: trace._next_exceed_index(bid) for bid in order}
        assert exceed[below][0] == 1
        assert set(exceed[above]) == {trace.prices.size}


def next_exceed_by_loop(prices, bid):
    n = len(prices)
    nxt = np.full(n + 1, n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        nxt[i] = i if prices[i] > bid else nxt[i + 1]
    return nxt


def unsorted_walk_counts(model, type_id, bid):
    """Bucket counts of the walks in their drawn order, as they were before
    the walks were sorted: the reference for the sort."""
    trace = model.traces[type_id]
    rng = substream(model.rng_seed, "ffp", type_id)
    if trace.span > 0:
        starts = trace.start + rng.uniform(0.0, trace.span, size=model.num_trials)
    else:
        starts = np.full(model.num_trials, trace.start)
    seg = np.searchsorted(trace.timestamps, starts, side="right") - 1
    nxt = next_exceed_index(trace.prices, bid)
    j = nxt[seg]
    n = trace.prices.size
    elapsed = np.where(j == seg, 0.0,
                       np.where(j < n, trace.timestamps[np.minimum(j, n - 1)] - starts, np.inf))
    failed = elapsed < HORIZON
    return np.bincount(np.floor(elapsed[failed] / STEP).astype(np.int64), minlength=NBUCKETS)


def test_counts_match_the_unsorted_walks():
    rng = np.random.default_rng(17)
    traces = {0: constant_trace(0.05, hours=1), 1: spiky_trace(), 2: stable_trace(0.03),
              3: alternating_trace(seg_seconds=5400.0)}
    for points in (2, 50, 2000):
        times = np.cumsum(rng.uniform(1.0, 7200.0, size=points))
        traces[len(traces)] = SpotPriceTrace(times, rng.uniform(0.01, 0.2, size=points))
    model = FailureModel(traces=traces, num_trials=3000, rng_seed=4)
    for type_id, trace in traces.items():
        starts, _ = model.walks(type_id)
        assert np.all(starts[1:] >= starts[:-1])
        for bid in (*np.quantile(trace.prices, [0.0, 0.3, 0.7, 1.0]), 0.5 * trace.prices.min()):
            got = estimate_ffp(model, type_id, float(bid)).failed_before
            counts = unsorted_walk_counts(model, type_id, float(bid))
            want = np.concatenate(([0], np.cumsum(counts))) / model.num_trials
            assert got.tobytes() == want.tobytes(), (type_id, bid)


class TestNextExceedIndex:
    @pytest.mark.parametrize("bid", [0.01, 0.05, 0.1, 0.15, 0.2])
    def test_matches_the_loop_with_prices_equal_to_the_bid(self, bid):
        rng = np.random.default_rng(3)
        prices = rng.choice([0.05, 0.1, 0.15], size=300)
        trace = SpotPriceTrace(np.arange(300) * 60.0, prices)
        got = next_exceed_index(trace.prices, bid)
        assert np.array_equal(got, next_exceed_by_loop(prices, bid))
        assert got.dtype == np.int64
        assert np.array_equal(trace._next_exceed_index(bid), got)

    def test_single_point(self):
        for price, want in ((0.1, [1, 1]), (0.3, [0, 1])):
            trace = SpotPriceTrace([0.0], [price])
            assert trace._next_exceed_index(0.1).tolist() == want


class TestCumulativeFailure:
    """FirstFailureDistribution.cumulative_before, the one cumulative-failure query."""

    def test_zero_at_t_zero(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=1000, rng_seed=1)
        assert estimate_ffp(model, 0, 0.10).cumulative_before(0.0) == 0.0

    def test_bid_above_max_never_fails(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=1000, rng_seed=1)
        assert estimate_ffp(model, 0, 0.20).cumulative_before(86_400.0) == 0.0

    def test_full_horizon_on_alternating(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=10_000, rng_seed=4)
        dist = estimate_ffp(model, 0, 0.10)
        assert dist.cumulative_before(HORIZON) == pytest.approx(1.0, abs=0.02)

    def test_monotone_in_t(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=3000, rng_seed=5)
        dist = estimate_ffp(model, 0, 0.10)
        values = [dist.cumulative_before(t) for t in range(0, 10_000, 500)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_bid_monotonicity_pathwise(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=5000, rng_seed=6)
        rng = np.random.default_rng(7)
        times = np.array([0.0, 59.0, 600.0, 3600.0, 3601.0, 7200.0, 86_400.0, math.inf])
        for _ in range(100):
            b1, b2 = sorted(rng.uniform(0.001, 0.2, size=2))
            low = estimate_ffp(model, 0, b1).cumulative_before(times)
            high = estimate_ffp(model, 0, b2).cumulative_before(times)
            assert np.all(low >= high)
            assert np.all(low <= 1.0)
            assert np.all(np.diff(low) >= 0)

    def test_scalar_and_array_queries_are_the_exact_count_ratio(self):
        # Both query forms give (walks failing before t) / trials, with the
        # count summed in integers: at or past the last bucket it is
        # counts.sum() / trials exactly, so never above 1.
        rng = np.random.default_rng(31)
        for trial in range(40):
            used = int(rng.choice([1, 3, 100, NBUCKETS]))
            trials = int(rng.choice([1, 7, 10_000, 123_457]))
            counts = counts_with_gaps(rng, used, trials, float(rng.choice([1.0, 0.9, 0.3])))
            dist = ffp_from_counts(counts, trials)
            end = HORIZON
            past = [end - STEP / 2, end, end + 1.0, 10 * end, math.inf]
            times = np.concatenate((rng.uniform(0.0, 1.2 * end, size=50),
                                    np.arange(NBUCKETS) * STEP, past))
            got = dist.cumulative_before(times)
            scalar = [dist.cumulative_before(t) for t in times]
            want = [int(counts[:min(math.ceil(t / STEP), NBUCKETS)].sum()) / trials
                    if t < math.inf else int(counts.sum()) / trials for t in times]
            assert got.tolist() == scalar == want
            assert got[-len(past):].tolist() == [int(counts.sum()) / trials] * len(past)
            assert np.all(got <= 1.0)
            order = np.argsort(times, kind="stable")
            assert np.all(np.diff(got[order]) >= 0)

    def test_rejects_negative_and_nan_times(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=100, rng_seed=1)
        dist = estimate_ffp(model, 0, 0.10)
        for t in (-1.0, math.nan, [0.0, 60.0, -1e-9], np.array([math.nan, 60.0])):
            with pytest.raises(ValueError, match="times must be nonnegative"):
                dist.cumulative_before(t)


def test_fallback_time_sum_memo_keys_on_both_operands():
    # A bid search can move from (A, B) to (B, B) or (B, A): the memoised
    # bucket weights are reused only for the same (spot, on-demand) pair.
    rng = np.random.default_rng(43)
    a, b = (EmpiricalDistribution(rng.uniform(0.0, HORIZON, 500)) for _ in range(2))
    ffp = ffp_from_counts(counts_with_gaps(rng, NBUCKETS, 1000, 0.9), 1000)
    model = FailureModel(traces={})
    pairs = ((a, b), (b, b), (b, a), (a, a), (a, b))
    fresh = [FailureModel(traces={}).fallback_time_sum(ffp, spot, od) for spot, od in pairs]
    assert len(set(fresh[:4])) == 4
    assert [model.fallback_time_sum(ffp, spot, od) for spot, od in pairs] == fresh
