import math

import numpy as np
import pytest

from spotflow.cloud_model import GammaSpec, NormalSpec, _positive_draw
from spotflow.distributions import (
    DEFAULT_SAMPLE_COUNT,
    EmpiricalDistribution,
    convolve,
    dominates,
    max_of,
    substream,
)


def cdf(dist, t):
    """Fraction of dist's samples <= t, by searchsorted over its sorted samples."""
    return np.searchsorted(dist.sorted_samples, t, side="right") / dist.sample_count


def uniform_1_to_100(reps=100):
    # The {1..100} grid replicated to keep sampling noise in paired ops small.
    return EmpiricalDistribution(np.tile(np.arange(1, 101, dtype=float), reps))


class TestConstructors:
    """The bandwidth sampler the planner and simulator run."""

    def test_gamma_mean_calibrated_small_seq_io(self):
        d = _positive_draw(GammaSpec(129.3, 0.79), substream(1, "gamma"), 10_000)
        assert d.mean() == pytest.approx(129.3 * 0.79, rel=0.02)

    def test_gamma_exponential_special_case(self):
        d = _positive_draw(GammaSpec(1, 1), substream(2, "gamma"), 10_000)
        assert d.mean() == pytest.approx(1.0, rel=0.03)

    def test_gamma_mean_calibrated_xlarge_seq_io(self):
        d = _positive_draw(GammaSpec(408.1, 0.26), substream(3, "gamma"), 10_000)
        assert d.mean() == pytest.approx(408.1 * 0.26, rel=0.02)

    def test_gamma_rejects_bad_parameters(self):
        rng = substream(0, "gamma")
        with pytest.raises(ValueError, match="produces no positive mass"):
            _positive_draw(GammaSpec(0, 1.0), rng, DEFAULT_SAMPLE_COUNT)
        with pytest.raises(ValueError):
            _positive_draw(GammaSpec(1.0, -2), rng, DEFAULT_SAMPLE_COUNT)
        with pytest.raises(ValueError, match="at least 2 samples"):
            EmpiricalDistribution(_positive_draw(GammaSpec(1.0, 1.0), rng, 1))

    def test_normal_mean(self):
        d = _positive_draw(NormalSpec(150.3, 50.0), substream(4, "normal"), 10_000)
        assert d.mean() == pytest.approx(150.3, rel=0.02)

    def test_normal_degenerate_sigma_zero(self):
        d = _positive_draw(NormalSpec(5, 0), substream(5, "normal"), 100)
        assert np.all(d == 5.0)

    def test_normal_std(self):
        d = _positive_draw(NormalSpec(1034.0, 146.4), substream(6, "normal"), 10_000)
        assert d.std() == pytest.approx(146.4, rel=0.05)

    def test_normal_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            _positive_draw(NormalSpec(1.0, -0.5), substream(0, "normal"), DEFAULT_SAMPLE_COUNT)

    def test_normal_truncates_at_zero(self):
        d = _positive_draw(NormalSpec(1.0, 2.0), substream(7, "normal"), 5000)
        assert d.min() >= 0.0

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([1.0, -0.1])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([1.0])

    def test_immutable(self):
        d = EmpiricalDistribution(np.full(2, 1.0))
        with pytest.raises(AttributeError):
            d._samples = np.zeros(2)
        with pytest.raises(ValueError):
            d.samples[0] = 2.0


class TestConvolve:
    def test_point_masses(self):
        c = convolve(EmpiricalDistribution(np.full(50, 2.0)),
                     EmpiricalDistribution(np.full(50, 3.0)))
        assert c.sorted_samples[0] == c.sorted_samples[-1] == 5.0

    def test_normal_sum_analytic(self):
        a = EmpiricalDistribution(_positive_draw(NormalSpec(10, 2), substream(1, "normal"), 10_000))
        b = EmpiricalDistribution(_positive_draw(NormalSpec(20, 3), substream(2, "normal"), 10_000))
        c = convolve(a, b)
        assert c.expectation() == pytest.approx(30.0, rel=0.01)
        assert c.samples.std() == pytest.approx(math.sqrt(13), rel=0.05)

    def test_zero_is_identity(self):
        a = EmpiricalDistribution(_positive_draw(GammaSpec(5, 2), substream(4, "gamma"), 2000))
        c = convolve(a, EmpiricalDistribution(np.full(2000, 0.0)))
        for q in np.linspace(0, 1, 21):
            assert c.percentile(q) == a.percentile(q)

    def test_mean_additivity_is_exact_for_equal_sizes(self):
        # Index pairing keeps both sample vectors whole.
        a = EmpiricalDistribution(_positive_draw(GammaSpec(3, 1), substream(6, "gamma"), 1000))
        b = EmpiricalDistribution(_positive_draw(GammaSpec(7, 2), substream(7, "gamma"), 1000))
        c = convolve(a, b)
        assert c.expectation() == pytest.approx(a.expectation() + b.expectation(), abs=1e-9)

    def test_unequal_sample_counts_rejected(self):
        with pytest.raises(ValueError, match="unequal sample counts"):
            convolve(EmpiricalDistribution(np.full(50, 2.0)),
                     EmpiricalDistribution(np.full(40, 3.0)))

    def test_equal_sizes_pair_by_index(self):
        a = EmpiricalDistribution(_positive_draw(GammaSpec(5, 2), substream(10, "gamma"), 1000))
        c = convolve(a, a)
        assert np.array_equal(c.samples, 2.0 * a.samples)
        assert not c.samples.flags.writeable


class TestMaxOf:
    def test_point_masses(self):
        m = max_of([EmpiricalDistribution(np.full(50, 2.0)),
                    EmpiricalDistribution(np.full(50, 3.0))])
        assert m.sorted_samples[0] == m.sorted_samples[-1] == 3.0

    def test_single_input_identity(self):
        d = EmpiricalDistribution(_positive_draw(GammaSpec(2, 2), substream(2, "gamma"), 500))
        assert max_of([d]) is d

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_of([])

    def test_unequal_sample_counts_rejected(self):
        same = EmpiricalDistribution(np.full(50, 2.0))
        with pytest.raises(ValueError, match="unequal sample counts"):
            max_of([same, same, EmpiricalDistribution(np.full(40, 3.0))])

    def test_two_uniforms_brute_force_mean(self):
        # Oracle: exact enumeration of max(i, j) over the 100x100 grid.
        grid = np.arange(1, 101, dtype=float)
        oracle = np.maximum.outer(grid, grid).mean()
        # Samples are paired by index, so the second operand is an
        # independent draw: a seeded shuffle of the same grid.
        a = uniform_1_to_100()
        b = EmpiricalDistribution(np.random.default_rng(4).permutation(a.samples))
        m = max_of([a, b])
        assert m.expectation() == pytest.approx(oracle, rel=0.03)

    def test_equal_sizes_pair_by_index(self):
        dists = [EmpiricalDistribution(_positive_draw(GammaSpec(2, 3), substream(s, "gamma"), 500))
                 for s in range(3)]
        m = max_of(dists)
        assert np.array_equal(m.samples, np.maximum.reduce([d.samples for d in dists]))

    def test_dominates_every_input_percentile(self):
        a = EmpiricalDistribution(_positive_draw(GammaSpec(4, 2), substream(5, "gamma"), 4000))
        b = EmpiricalDistribution(_positive_draw(NormalSpec(9, 2), substream(6, "normal"), 4000))
        m = max_of([a, b])
        for q in np.linspace(0, 1, 11):
            assert m.percentile(q) >= a.percentile(q) - 1e-12
            assert m.percentile(q) >= b.percentile(q) - 1e-12


class TestPercentile:
    def test_point_mass(self):
        assert EmpiricalDistribution(np.full(10, 5.0)).percentile(0.9) == 5.0

    def test_nearest_rank_on_grid(self):
        d = EmpiricalDistribution(np.arange(1, 101, dtype=float))
        assert d.percentile(0.96) == 96.0
        assert d.percentile(0.955) == 96.0
        assert d.percentile(0.01) == 1.0

    def test_q_one_is_max(self):
        d = EmpiricalDistribution(_positive_draw(GammaSpec(2, 5), substream(1, "gamma"), 1000))
        assert d.percentile(1.0) == d.sorted_samples[-1]

    def test_q_zero_is_min(self):
        d = EmpiricalDistribution(_positive_draw(GammaSpec(2, 5), substream(1, "gamma"), 1000))
        assert d.percentile(0.0) == d.sorted_samples[0]

    def test_out_of_range_rejected(self):
        d = EmpiricalDistribution(np.full(2, 1.0))
        with pytest.raises(ValueError):
            d.percentile(-0.1)
        with pytest.raises(ValueError):
            d.percentile(1.1)


class TestExpectation:
    def test_point_mass(self):
        assert EmpiricalDistribution(np.full(2, 7.0)).expectation() == 7.0

    def test_two_values(self):
        assert EmpiricalDistribution([0.0, 10.0]).expectation() == 5.0

    def test_gamma(self):
        d = EmpiricalDistribution(_positive_draw(GammaSpec(2, 3), substream(1, "gamma"), 10_000))
        assert d.expectation() == pytest.approx(6.0, rel=0.03)


class TestDominates:
    def test_reflexive(self):
        d = EmpiricalDistribution(_positive_draw(GammaSpec(3, 2), substream(1, "gamma"), 1000))
        assert dominates(d, d, 0.0)

    def test_point_masses(self):
        fast = EmpiricalDistribution(np.full(10, 2.0))
        slow = EmpiricalDistribution(np.full(10, 3.0))
        assert dominates(fast, slow, 0.0)
        assert not dominates(slow, fast, 0.0)

    def test_shifted_normals(self):
        fast = EmpiricalDistribution(_positive_draw(NormalSpec(10, 1), substream(2, "normal"), 5000))
        slow = EmpiricalDistribution(_positive_draw(NormalSpec(12, 1), substream(3, "normal"), 5000))
        assert dominates(fast, slow, 0.01)
        assert not dominates(slow, fast, 0.01)

    @staticmethod
    def union_grid(c2, c1, epsilon):
        # The check on the merged sample grid that `dominates` reduces.
        grid = np.union1d(c2.sorted_samples, c1.sorted_samples)
        return bool(np.all(cdf(c2, grid) >= cdf(c1, grid) - epsilon))

    @staticmethod
    def random_pair(rng):
        def one():
            size = int(rng.choice([2, 3, 7, 50, 400]))
            kind = rng.integers(3)
            if kind == 0:  # heavy ties
                return EmpiricalDistribution(rng.integers(0, 6, size=size).astype(float))
            if kind == 1:
                return EmpiricalDistribution(np.full(size, float(rng.integers(0, 6))))
            return EmpiricalDistribution(rng.gamma(2.0, 1.5, size=size))
        return one(), one()

    def test_matches_the_union_grid_check(self):
        rng = np.random.default_rng(12)
        for _ in range(400):
            c2, c1 = self.random_pair(rng)
            grid = np.union1d(c2.sorted_samples, c1.sorted_samples)
            gap = float(np.max(cdf(c1, grid) - cdf(c2, grid)))
            # epsilon exactly at the widest CDF gap and one float either side.
            for eps in {0.0, 0.01, 0.25, max(gap, 0.0), max(np.nextafter(gap, -1.0), 0.0),
                        max(np.nextafter(gap, 2.0), 0.0)}:
                assert dominates(c2, c1, eps) == self.union_grid(c2, c1, eps), (c2, c1, eps)

    @staticmethod
    def searchsorted_form(c2, c1, epsilon):
        # The count-at-each-c1-sample form the rank lookup replaced.
        s1 = c1.sorted_samples
        n1 = s1.size
        at_or_below = np.searchsorted(c2.sorted_samples, s1, side="right")
        return bool(np.all(at_or_below / c2.sample_count
                           >= np.arange(1, n1 + 1) / n1 - epsilon))

    def test_matches_the_searchsorted_form(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            c2, c1 = self.random_pair(rng)
            for eps in (0.0, 0.01, 1 / 3):
                assert dominates(c2, c1, eps) == self.searchsorted_form(c2, c1, eps), (
                    c2.samples, c1.samples, eps)

    @pytest.mark.parametrize("c2, c1, eps, want", [
        # eps = 1/3 over three c1 samples: the first rank needs no c2 sample
        # (m_1 <= 0), so a c2 slower than c1's smallest sample can pass.
        ([5.0, 5.0, 0.0], [1.0, 2.0, 6.0], 1 / 3, True),
        ([5.0, 5.0, 9.0], [1.0, 2.0, 6.0], 1 / 3, False),
        # eps = 0 at the last c1 sample asks for all of c2 (m_n1 = n2).
        ([1.0, 1.0, 3.0, 6.0], [1.0, 6.0], 0.0, True),
        ([1.0, 1.0, 3.0, 6.5], [1.0, 6.0], 0.0, False),
        # Ties on both sides with unequal sizes.
        ([2.0, 2.0, 2.0], [2.0, 2.0], 0.0, True),
        ([2.0, 2.0, 3.0], [2.0, 2.0], 0.01, False),
    ])
    def test_rank_lookup_edges(self, c2, c1, eps, want):
        c2, c1 = EmpiricalDistribution(c2), EmpiricalDistribution(c1)
        assert dominates(c2, c1, eps) == self.searchsorted_form(c2, c1, eps) == want


class TestProperties:
    """Randomized invariant checks; the master seed is printed for replay."""

    MASTER_SEED = 20240811
    CASES = 1000

    def _random_dist(self, rng, n=200):
        kind = rng.integers(0, 3)
        if kind == 0:
            return EmpiricalDistribution(rng.gamma(rng.uniform(1, 8), rng.uniform(0.5, 4), n))
        if kind == 1:
            return EmpiricalDistribution(np.abs(rng.normal(rng.uniform(1, 50), rng.uniform(0.1, 10), n)))
        return EmpiricalDistribution(rng.uniform(0, rng.uniform(1, 100), n))

    def test_convolution_commutes_in_percentiles(self):
        print("property seed:", self.MASTER_SEED)
        rng = np.random.default_rng(self.MASTER_SEED)
        for case in range(self.CASES):
            a = self._random_dist(rng)
            b = self._random_dist(rng)
            ab = convolve(a, b)
            ba = convolve(b, a)
            for q in (0.1, 0.5, 0.9):
                lo, hi = sorted((ab.percentile(q), ba.percentile(q)))
                # 2x sampling tolerance on 200-sample operands.
                assert hi - lo <= 0.30 * max(hi, 1e-9), (case, q)

    def test_operations_preserve_nonnegativity(self):
        rng = np.random.default_rng(self.MASTER_SEED + 1)
        for case in range(self.CASES):
            a = self._random_dist(rng)
            b = self._random_dist(rng)
            assert convolve(a, b).sorted_samples[0] >= 0.0
            assert max_of([a, b]).sorted_samples[0] >= 0.0

    def test_percentile_monotone_in_q(self):
        rng = np.random.default_rng(self.MASTER_SEED + 2)
        for _ in range(self.CASES):
            d = self._random_dist(rng)
            qs = np.sort(rng.uniform(0, 1, 5))
            vals = [d.percentile(q) for q in qs]
            assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_dominance_reflexive_and_transitive_at_zero_epsilon(self):
        rng = np.random.default_rng(self.MASTER_SEED + 3)
        for _ in range(self.CASES):
            base = self._random_dist(rng)
            assert dominates(base, base, 0.0)
            # Shifting left can only improve, shifting right only worsen:
            # a <= b <= c pointwise on one grid gives a chain a >= b >= c.
            b = EmpiricalDistribution(base.samples + 1.0)
            c = EmpiricalDistribution(base.samples + 2.0)
            assert dominates(base, b, 0.0) and dominates(b, c, 0.0)
            assert dominates(base, c, 0.0)

    def test_bit_reproducible_for_fixed_seed(self):
        rng = np.random.default_rng(self.MASTER_SEED + 4)
        a = self._random_dist(rng)
        b = self._random_dist(rng)
        assert np.array_equal(convolve(a, b).samples, convolve(a, b).samples)
        assert np.array_equal(max_of([a, b]).samples, max_of([a, b]).samples)
        g1 = EmpiricalDistribution(_positive_draw(GammaSpec(3, 2), substream(42, "gamma"), 100))
        g2 = EmpiricalDistribution(_positive_draw(GammaSpec(3, 2), substream(42, "gamma"), 100))
        assert np.array_equal(g1.samples, g2.samples)


def test_substream_independence_and_determinism():
    r1 = substream(7, "a", 1)
    r2 = substream(7, "a", 1)
    r3 = substream(7, "a", 2)
    x1, x2, x3 = r1.random(4), r2.random(4), r3.random(4)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, x3)
