import math

import numpy as np
import pytest

from spotflow.spot_market import (
    FailureModel,
    FirstFailureDistribution,
    SpotPriceTrace,
    TraceError,
    cumulative_failure,
    estimate_ffp,
    load_trace,
    next_exceed_index,
)

from conftest import alternating_trace, constant_trace, spiky_trace, stable_trace


class TestLoadTrace:
    def test_three_line_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0.05\n3600,0.06\n7200,0.05\n")
        trace = load_trace(path)
        assert len(trace) == 3
        assert trace.price_at(3600) == 0.06

    def test_iso8601_timestamps(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("2013-08-01T00:00:00,0.05\n2013-08-01T01:00:00,0.06\n")
        trace = load_trace(path)
        assert len(trace) == 2

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
        assert trace.max_price() == pytest.approx(10.0)


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


def exhaustive_offset_oracle(low, high, seg, bid, horizon, step, t_query, cycles=200):
    """Cumulative failure before t_query by enumerating integer start offsets.

    Independent hand-walk over the periodic low/high trace: a walk starting
    in a high segment fails immediately; one starting in a low segment fails
    when the segment ends.  Walks reaching the trace end or the horizon
    count as no-failure.
    """
    span = 2 * seg * cycles - seg  # last point starts the final high segment
    fail = 0
    total = 0
    for offset in range(0, int(span), 13):  # co-prime stride, dense coverage
        pos = offset % (2 * seg)
        if (high if pos >= seg else low) > bid:
            elapsed = 0.0
        elif high > bid:
            elapsed = seg - pos
        else:
            elapsed = math.inf
        total += 1
        if offset + elapsed > span or elapsed >= horizon:
            continue  # no-failure
        if math.floor(elapsed / step) * step < t_query:
            fail += 1
    return fail / total


class TestEstimateFfp:
    def test_constant_low_never_fails(self):
        model = FailureModel(traces={0: constant_trace(0.05)}, num_trials=2000, rng_seed=1)
        dist = estimate_ffp(model, 0, 0.10)
        assert dist.no_failure_mass == 1.0
        assert dist.masses.sum() == 0.0

    def test_constant_high_fails_at_zero(self):
        model = FailureModel(traces={0: constant_trace(0.20)}, num_trials=2000, rng_seed=1)
        dist = estimate_ffp(model, 0, 0.10)
        assert dist.masses[0] == 1.0
        assert dist.no_failure_mass == 0.0

    def test_masses_sum_to_one(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=5000, rng_seed=2)
        dist = estimate_ffp(model, 0, 0.10)
        assert dist.masses.sum() + dist.no_failure_mass == pytest.approx(1.0, abs=1e-9)

    def test_alternating_matches_offset_oracle(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=10_000,
                             horizon=7200.0, step=60.0, rng_seed=3)
        for t_query in (60.0, 1800.0, 3600.0, 5400.0, 7200.0):
            got = cumulative_failure(model, 0, 0.10, t_query)
            want = exhaustive_offset_oracle(0.05, 0.15, 3600, 0.10, 7200.0, 60.0, t_query)
            assert got == pytest.approx(want, abs=0.02), t_query

    def test_rejects_nonpositive_bid(self):
        model = FailureModel(traces={0: constant_trace(0.05)}, num_trials=10)
        with pytest.raises(ValueError):
            estimate_ffp(model, 0, 0.0)

    def test_rejects_non_finite_bid(self):
        model = FailureModel(traces={0: constant_trace(0.05)}, num_trials=10)
        for bid in (math.nan, math.inf):
            with pytest.raises(ValueError, match="bid must be positive and finite"):
                estimate_ffp(model, 0, bid)

    def test_deterministic_for_seed(self):
        model_a = FailureModel(traces={0: alternating_trace()}, num_trials=3000, rng_seed=9)
        model_b = FailureModel(traces={0: alternating_trace()}, num_trials=3000, rng_seed=9)
        da = estimate_ffp(model_a, 0, 0.10)
        db = estimate_ffp(model_b, 0, 0.10)
        assert np.array_equal(da.masses, db.masses)


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
                assert got.masses.tobytes() == alone.masses.tobytes(), (type_id, bid)
                assert got.no_failure_mass == alone.no_failure_mass

    @pytest.mark.parametrize("first", [0, 1])
    def test_bids_a_hair_apart_across_a_price_keep_their_own_results(self, first):
        # 0.024 is below the high price and 0.0240000000004 above it; they
        # agree to nine decimals.
        trace = alternating_trace(low=0.01, high=0.0240000000002)
        model = FailureModel(traces={0: trace}, num_trials=2000, rng_seed=4)
        below, above = 0.024, 0.0240000000004
        order = (below, above) if first == 0 else (above, below)
        got = {bid: estimate_ffp(model, 0, bid).no_failure_mass for bid in order}
        assert got[below] < 0.01
        assert got[above] == 1.0
        exceed = {bid: trace._next_exceed_index(bid) for bid in order}
        assert exceed[below][0] == 1
        assert np.all(exceed[above] == len(trace))


def next_exceed_by_loop(prices, bid):
    n = len(prices)
    nxt = np.full(n + 1, n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        nxt[i] = i if prices[i] > bid else nxt[i + 1]
    return nxt


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


def choice_reference(dist, rng, n):
    # What sample_failure_times replaces: rng.choice over the outcomes.
    outcomes = np.append(dist.bucket_times, np.inf)
    probs = np.append(dist.masses, dist.no_failure_mass)
    return rng.choice(outcomes, size=n, p=probs / probs.sum())


def counts_with_gaps(rng, nbuckets, trials, failure_share):
    """Random integer bucket counts, about 60% of them zero, summing to
    round(failure_share * trials) walks (at least one bucket is nonzero
    whenever that sum is)."""
    failed = int(round(failure_share * trials))
    weights = rng.random(nbuckets) * (rng.random(nbuckets) < 0.4)
    weights[rng.integers(nbuckets)] += 0.5
    counts = np.floor(weights / weights.sum() * failed).astype(np.int64)
    counts[int(np.argmax(weights))] += failed - counts.sum()
    return counts


class TestSampleFailureTimes:
    TRIALS = 4000

    @pytest.mark.parametrize("masses, no_failure", [
        (np.zeros(1440), 1.0),                      # all mass in no-failure
        (np.eye(1, 1440)[0], 0.0),                  # all mass in bucket 0
        (np.eye(1, 1440, 1439)[0], 0.0),            # all mass in the last bucket
        (np.full(4, 0.25), 0.0),
        (np.array([0.0, 0.5, 0.0, 0.0]), 0.5),
    ])
    def test_matches_choice_on_edge_vectors(self, masses, no_failure):
        # Count vectors whose derived masses are exactly the given ones.
        counts = (masses * self.TRIALS).astype(np.int64)
        dist = FirstFailureDistribution(step=60.0, counts=counts, trials=self.TRIALS)
        assert dist.masses.tobytes() == masses.tobytes()
        assert dist.no_failure_mass == no_failure
        self.check(dist, seed=1, n=5000)

    def test_matches_choice_on_random_vectors_with_zero_buckets(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            nbuckets = int(rng.choice([1, 3, 100, 1440, 5000]))
            share = float(rng.choice([1.0, 0.9, 0.3]))
            trials = int(rng.choice([10, 10_000, 123_457]))
            counts = counts_with_gaps(rng, nbuckets, trials, share)
            assert (counts == 0).any() or nbuckets < 100
            dist = FirstFailureDistribution(step=float(rng.choice([1.0, 60.0, 37.5])),
                                            counts=counts, trials=trials)
            self.check(dist, seed=trial, n=int(rng.choice([1, 10, 20_000])))

    def test_matches_choice_on_an_estimated_distribution(self):
        model = FailureModel(traces={0: spiky_trace()}, num_trials=10_000, rng_seed=2)
        self.check(estimate_ffp(model, 0, 0.1), seed=5, n=20_000)

    @staticmethod
    def check(dist, seed, n):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = choice_reference(dist, want_rng, n)
        got = dist.sample_failure_times(got_rng, n)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestCumulativeFailure:
    def test_zero_at_t_zero(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=1000, rng_seed=1)
        assert cumulative_failure(model, 0, 0.10, 0.0) == 0.0

    def test_bid_above_max_never_fails(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=1000, rng_seed=1)
        assert cumulative_failure(model, 0, 0.20, 86_400.0) == 0.0

    def test_full_horizon_on_alternating(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=10_000,
                             horizon=7200.0, step=60.0, rng_seed=4)
        assert cumulative_failure(model, 0, 0.10, 7200.0) == pytest.approx(1.0, abs=0.02)

    def test_monotone_in_t(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=3000, rng_seed=5)
        values = [cumulative_failure(model, 0, 0.10, t) for t in range(0, 10_000, 500)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_bid_monotonicity_pathwise(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=5000, rng_seed=6)
        rng = np.random.default_rng(7)
        times = np.array([0.0, 59.0, 600.0, 3600.0, 3601.0, 7200.0, 86_400.0, math.inf])
        for _ in range(100):
            b1, b2 = sorted(rng.uniform(0.001, 0.2, size=2))
            for t in (600.0, 3600.0, 7200.0, 86_400.0):
                assert (cumulative_failure(model, 0, b1, t)
                        >= cumulative_failure(model, 0, b2, t))
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
            nbuckets = int(rng.choice([1, 3, 100, 1440]))
            trials = int(rng.choice([1, 7, 10_000, 123_457]))
            step = float(rng.choice([1.0, 60.0, 37.5]))
            counts = counts_with_gaps(rng, nbuckets, trials, float(rng.choice([1.0, 0.9, 0.3])))
            dist = FirstFailureDistribution(step=step, counts=counts, trials=trials)
            model = FailureModel(traces={0: constant_trace(0.01)}, num_trials=trials)
            model._cache[(0, 0.5)] = dist
            end = nbuckets * step
            past = [end - step / 2, end, end + 1.0, 10 * end, math.inf]
            times = np.concatenate((rng.uniform(0.0, 1.2 * end, size=50),
                                    dist.bucket_times, past))
            got = dist.cumulative_before(times)
            scalar = [cumulative_failure(model, 0, 0.5, t) for t in times]
            want = [int(counts[:min(math.ceil(t / step), nbuckets)].sum()) / trials
                    if t < math.inf else int(counts.sum()) / trials for t in times]
            assert got.tolist() == scalar == want
            assert got[-len(past):].tolist() == [int(counts.sum()) / trials] * len(past)
            assert np.all(got <= 1.0)
            order = np.argsort(times, kind="stable")
            assert np.all(np.diff(got[order]) >= 0)

    def test_rejects_negative_and_nan_times(self):
        model = FailureModel(traces={0: alternating_trace()}, num_trials=100, rng_seed=1)
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                cumulative_failure(model, 0, 0.10, t)
