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

Order statistics are sorted per query: sorted_samples and percentile sort
the samples each time and no sorted copy is kept, so a distribution holds
one copy of its samples and intermediate results are never sorted.

All operations are pure and bit-reproducible for a fixed seed.
"""

import functools
import math
import zlib

import numpy as np

DEFAULT_SAMPLE_COUNT = 10_000


def substream(seed, *key):
    """Independent random generator derived from a root seed and a key path.

    The generator is seeded by a SeedSequence over (seed, *key): string key
    parts enter as their crc32, so call sites can use readable labels, and
    integers as they are, modulo 2**64.
    """
    entropy = []
    for part in (seed, *key):
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode("utf-8")))
        else:
            entropy.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@functools.lru_cache(maxsize=1 << 14)
def derive_seed(seed, *key):
    """Integer seed for a child computation, stable across processes.

    The one rule for handing a seed down a key path: the first 63-bit draw
    of the (seed, *key) substream.  Pure, so results are memoized.
    """
    return int(substream(seed, *key).integers(0, 2**63))


class EmpiricalDistribution:
    """Immutable empirical distribution of a nonnegative random variable.

    Holds the read-only sample vector and its mean, made on the first
    query that needs it.
    Units are context-dependent (seconds for times, MB/s for bandwidths).
    """

    __slots__ = ("_samples", "_mean")

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
        object.__setattr__(self, "_mean", None)

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
        object.__setattr__(dist, "_mean", None)
        return dist

    def __setattr__(self, name, value):
        raise AttributeError("EmpiricalDistribution is immutable")

    @property
    def samples(self):
        return self._samples

    @property
    def sorted_samples(self):
        srt = np.sort(self._samples)
        srt.flags.writeable = False
        return srt

    @property
    def sample_count(self):
        return int(self._samples.size)

    def __repr__(self):
        return "EmpiricalDistribution(n=%d, mean=%.6g)" % (
            self.sample_count,
            self.expectation(),
        )

    def head(self, count):
        """Distribution of the first `count` samples, sharing this one's memory.

        Operations pair samples by index, so an operation on the heads of
        its operands gives the head of its result.
        """
        if count < 2:
            raise ValueError("need at least 2 samples, got %d" % count)
        return EmpiricalDistribution._adopt(self._samples[:count])

    # ---------- queries ----------

    def percentile(self, q):
        """Nearest-rank percentile: the smallest sample v with P(X <= v) >= q."""
        rank = percentile_rank(q, self.sample_count)
        return float(self.sorted_samples[rank - 1])

    def expectation(self):
        mean = self._mean
        if mean is None:
            mean = float(self._samples.mean())
            object.__setattr__(self, "_mean", mean)
        return mean


def percentile_rank(q, n):
    """1-based rank, among n sorted samples, of the nearest-rank q-percentile."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1], got %r" % (q,))
    # round() guards against float noise in q*n flipping the rank.
    return min(max(math.ceil(round(q * n, 9)), 1), n)


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
    the others, so those extra checks are implied.  Both sides are
    count / size floats: the fraction of samples at or below t.

    The check is a rank lookup: m_k, the smallest count m with
    m / n2 >= k / n1 - epsilon, is ceil((k / n1 - epsilon) * n2) corrected
    by one step against that same float expression, and CDF_c2 reaches it
    at the k-th c1 sample exactly when c2's m_k-th smallest sample is no
    larger.  A nonpositive m_k always holds, and m_k <= n2 because the
    right-hand side is at most 1.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    s1, s2 = c1.sorted_samples, c2.sorted_samples
    first, idx = _dominance_ranks(s1.size, s2.size, epsilon)
    return bool(np.all(s2[idx] <= s1[first:]))


@functools.lru_cache(maxsize=16)
def _dominance_ranks(n1, n2, epsilon):
    """(first, idx): sorted c1 samples from index `first` on are checked
    against the sorted c2 samples at idx (m_k - 1); the ones before have a
    nonpositive m_k.  Depends only on the sample counts and epsilon, so it
    is memoized, read-only."""
    need = np.arange(1, n1 + 1) / n1 - epsilon
    m = np.ceil(need * n2).astype(np.int64)
    m -= (m - 1) / n2 >= need
    m += m / n2 < need
    first = int(np.searchsorted(m, 1))  # m is nondecreasing in k
    idx = m[first:] - 1
    idx.flags.writeable = False
    return first, idx
