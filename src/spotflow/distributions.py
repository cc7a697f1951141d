"""Sample-based probability distributions and their arithmetic.

Every random quantity in this package (task execution time, I/O bandwidth,
workflow makespan) is represented as a fixed-size vector of Monte Carlo
samples.  That keeps the algebra closed: sums, maxima, mixtures and
percentile queries all stay in the same representation with uniform error
behaviour.  Binary operations pair samples after an independent seeded
permutation of each operand, which models independence of the operands.

All operations are pure and bit-reproducible for a fixed seed.
"""

import math
import zlib

import numpy as np

DEFAULT_SAMPLE_COUNT = 10_000

# Rounds of rejection sampling before giving up on producing valid draws.
_MAX_RESAMPLE_ROUNDS = 1000


def seed_sequence(seed, *key):
    """Build a deterministic SeedSequence for (seed, *key).

    String key parts are hashed with crc32 so call sites can use readable
    labels; integers are used as-is.
    """
    entropy = []
    for part in (seed, *key):
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode("utf-8")))
        else:
            entropy.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    return np.random.SeedSequence(entropy)


def substream(seed, *key):
    """Independent random generator derived from a root seed and a key path."""
    return np.random.default_rng(seed_sequence(seed, *key))


def derive_seed(seed, *key):
    """Integer seed for a child computation, stable across processes.

    The one rule for handing a seed down a key path: the first 63-bit draw
    of the (seed, *key) substream.
    """
    return int(substream(seed, *key).integers(0, 2**63))


class EmpiricalDistribution:
    """Immutable empirical distribution of a nonnegative random variable.

    Holds the raw sample vector plus a sorted view for order-statistic
    queries.  Units are context-dependent (seconds for times, MB/s for
    bandwidths).
    """

    __slots__ = ("_samples", "_sorted")

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("samples must be a one-dimensional sequence")
        if arr.size < 2:
            raise ValueError("need at least 2 samples, got %d" % arr.size)
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if arr.min() < 0.0:
            raise ValueError("samples must be nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        srt = np.sort(arr)
        srt.flags.writeable = False
        object.__setattr__(self, "_samples", arr)
        object.__setattr__(self, "_sorted", srt)

    def __setattr__(self, name, value):
        raise AttributeError("EmpiricalDistribution is immutable")

    @property
    def samples(self):
        return self._samples

    @property
    def sorted_samples(self):
        return self._sorted

    @property
    def sample_count(self):
        return int(self._samples.size)

    def __repr__(self):
        return "EmpiricalDistribution(n=%d, mean=%.6g)" % (
            self.sample_count,
            self.expectation(),
        )

    # ---------- constructors ----------

    @classmethod
    def point_mass(cls, value, n=2):
        """Degenerate distribution concentrated at a single value."""
        return cls(np.full(n, float(value)))

    @classmethod
    def from_gamma(cls, k, theta, n=DEFAULT_SAMPLE_COUNT, seed=0):
        """Draw n i.i.d. samples from Gamma(shape=k, scale=theta)."""
        if k <= 0 or theta <= 0:
            raise ValueError("gamma parameters must be positive")
        if n < 2:
            raise ValueError("need at least 2 samples")
        rng = substream(seed, "gamma")
        return cls(rng.gamma(k, theta, size=n))

    @classmethod
    def from_normal(cls, mu, sigma, n=DEFAULT_SAMPLE_COUNT, seed=0):
        """Draw n i.i.d. samples from Normal(mu, sigma), truncated at zero.

        Negative draws are rejected and redrawn, so the result is slightly
        biased upward when mu is within a few sigma of zero.
        """
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if n < 2:
            raise ValueError("need at least 2 samples")
        rng = substream(seed, "normal")
        if sigma == 0:
            if mu < 0:
                raise ValueError("point mass at negative mu cannot be truncated")
            return cls(np.full(n, float(mu)))
        out = rng.normal(mu, sigma, size=n)
        for _ in range(_MAX_RESAMPLE_ROUNDS):
            bad = out < 0.0
            count = int(bad.sum())
            if count == 0:
                return cls(out)
            out[bad] = rng.normal(mu, sigma, size=count)
        raise ValueError(
            "could not truncate Normal(%g, %g) at zero; too much negative mass"
            % (mu, sigma)
        )

    # ---------- queries ----------

    def percentile(self, q):
        """Nearest-rank percentile: the smallest sample v with P(X <= v) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1], got %r" % (q,))
        n = self._sorted.size
        # round() guards against float noise in q*n flipping the rank.
        rank = math.ceil(round(q * n, 9))
        idx = min(max(rank, 1), n) - 1
        return float(self._sorted[idx])

    def expectation(self):
        return float(self._samples.mean())

    def std(self):
        return float(self._samples.std())

    def cdf(self, t):
        """Fraction of samples <= t; t may be a scalar or an array."""
        counts = np.searchsorted(self._sorted, t, side="right")
        return counts / self._sorted.size

    def min_value(self):
        return float(self._sorted[0])

    def max_value(self):
        return float(self._sorted[-1])


def _aligned(dist, n, rng):
    """Return dist's samples as a length-n vector in random order.

    Uses a permutation when sizes already match (preserving the sample
    multiset exactly), a bootstrap resample otherwise.  This is the one
    sample-pairing rule of the package: every operation that combines
    distributions sample by sample lines its operands up through it.
    """
    if dist.sample_count == n:
        return rng.permutation(dist.samples)
    return rng.choice(dist.samples, size=n, replace=True)


def convolve(a, b, seed=0):
    """Distribution of X + Y for independent X ~ a, Y ~ b."""
    n = max(a.sample_count, b.sample_count)
    rng = substream(seed, "convolve")
    return EmpiricalDistribution(_aligned(a, n, rng) + _aligned(b, n, rng))


def max_of(dists, seed=0):
    """Distribution of max(X_1, ..., X_k) for independent X_i ~ dists[i]."""
    dists = list(dists)
    if not dists:
        raise ValueError("max_of requires at least one distribution")
    if len(dists) == 1:
        return dists[0]
    n = max(d.sample_count for d in dists)
    rng = substream(seed, "max")
    acc = np.array(_aligned(dists[0], n, rng))
    for d in dists[1:]:
        np.maximum(acc, _aligned(d, n, rng), out=acc)
    return EmpiricalDistribution(acc)


def dominates(c2, c1, epsilon=0.01):
    """True if c2 is everywhere at least as likely to have finished as c1.

    Checks CDF_c2(t) >= CDF_c1(t) - epsilon at every point of the merged
    sample grid (first-order stochastic dominance of "being faster", with
    slack epsilon for sampling noise).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    grid = np.union1d(c2.sorted_samples, c1.sorted_samples)
    return bool(np.all(c2.cdf(grid) >= c1.cdf(grid) - epsilon))
