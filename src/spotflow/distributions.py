"""Sample-based probability distributions and their arithmetic.

Every random quantity in this package (task execution time, I/O bandwidth,
workflow makespan) is represented as a fixed-size vector of Monte Carlo
samples.  That keeps the algebra closed: sums, maxima, mixtures and
percentile queries all stay in the same representation with uniform error
behaviour.

Pairing rule.  convolve and max_of pair their operands' samples by index:
sample i of every operand forms one joint draw, so the operands must have
equal sample counts.  Samples of distinct quantities come from distinct
seeded substreams, so index pairing models independent operands, and a
chain of such operations is a per-sample Monte Carlo over the same draws.
`derive_seed` is memoized.

Order statistics are lazy: a distribution sorts its samples on the first
query that needs them (sorted_samples, percentile, cdf), so intermediate
results that are only combined further are never sorted.

All operations are pure and bit-reproducible for a fixed seed.
"""

import functools
import math
import zlib

import numpy as np

DEFAULT_SAMPLE_COUNT = 10_000


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


@functools.lru_cache(maxsize=1 << 14)
def derive_seed(seed, *key):
    """Integer seed for a child computation, stable across processes.

    The one rule for handing a seed down a key path: the first 63-bit draw
    of the (seed, *key) substream.  Pure, so results are memoized.
    """
    return int(substream(seed, *key).integers(0, 2**63))


class EmpiricalDistribution:
    """Immutable empirical distribution of a nonnegative random variable.

    Holds the raw sample vector plus a sorted copy for order-statistic
    queries, made on the first query that needs it.  Units are
    context-dependent (seconds for times, MB/s for bandwidths).
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
        object.__setattr__(self, "_samples", arr)
        object.__setattr__(self, "_sorted", None)

    @classmethod
    def _adopt(cls, arr):
        """Wrap a fresh array of sums and maxima of valid samples, uncopied.

        For convolve, max_of and the hybrid mixture.  Skips the
        constructor's copy and checks: sums and maxima of valid samples are
        nonnegative, and finite short of float overflow, far above any time
        or bandwidth.
        """
        arr.flags.writeable = False
        dist = object.__new__(cls)
        object.__setattr__(dist, "_samples", arr)
        object.__setattr__(dist, "_sorted", None)
        return dist

    def __setattr__(self, name, value):
        raise AttributeError("EmpiricalDistribution is immutable")

    @property
    def samples(self):
        return self._samples

    @property
    def sorted_samples(self):
        srt = self._sorted
        if srt is None:
            srt = np.sort(self._samples)
            srt.flags.writeable = False
            object.__setattr__(self, "_sorted", srt)
        return srt

    @property
    def sample_count(self):
        return int(self._samples.size)

    def __repr__(self):
        return "EmpiricalDistribution(n=%d, mean=%.6g)" % (
            self.sample_count,
            self.expectation(),
        )

    # ---------- queries ----------

    def percentile(self, q):
        """Nearest-rank percentile: the smallest sample v with P(X <= v) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1], got %r" % (q,))
        srt = self.sorted_samples
        n = srt.size
        # round() guards against float noise in q*n flipping the rank.
        rank = math.ceil(round(q * n, 9))
        idx = min(max(rank, 1), n) - 1
        return float(srt[idx])

    def expectation(self):
        return float(self._samples.mean())

    def cdf(self, t):
        """Fraction of samples <= t; t may be a scalar or an array."""
        srt = self.sorted_samples
        counts = np.searchsorted(srt, t, side="right")
        return counts / srt.size


def _paired(dists):
    """Sample vectors of dists, paired by index; the counts must be equal."""
    counts = {d.sample_count for d in dists}
    if len(counts) > 1:
        raise ValueError("operands have unequal sample counts %s" % sorted(counts))
    return [d.samples for d in dists]


def convolve(a, b):
    """Distribution of X + Y for independent X ~ a, Y ~ b."""
    xa, xb = _paired((a, b))
    return EmpiricalDistribution._adopt(xa + xb)


def max_of(dists):
    """Distribution of max(X_1, ..., X_k) for independent X_i ~ dists[i]."""
    dists = list(dists)
    if not dists:
        raise ValueError("max_of requires at least one distribution")
    if len(dists) == 1:
        return dists[0]
    first, second, *rest = _paired(dists)
    acc = np.maximum(first, second)
    for x in rest:
        np.maximum(acc, x, out=acc)
    return EmpiricalDistribution._adopt(acc)


def dominates(c2, c1, epsilon=0.01):
    """True if c2 is everywhere at least as likely to have finished as c1.

    First-order stochastic dominance of "being faster", with slack epsilon
    for sampling noise: CDF_c2(t) >= CDF_c1(t) - epsilon for every t.  The
    check runs at c1's samples only, which decides it exactly over the
    merged sample grid: below c1's smallest sample CDF_c1 is 0, and from
    one c1 sample up to the next CDF_c1 is flat while CDF_c2 can only rise.
    At the k-th smallest c1 sample the right-hand side uses k / n1, which
    is CDF_c1 there for the last of a run of equal samples and smaller for
    the others, so those extra checks are implied.  Both sides are the same
    count / size floats that `cdf` returns.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    s1 = c1.sorted_samples
    n1 = s1.size
    at_or_below = np.searchsorted(c2.sorted_samples, s1, side="right")
    return bool(np.all(at_or_below / c2.sample_count
                       >= np.arange(1, n1 + 1) / n1 - epsilon))
