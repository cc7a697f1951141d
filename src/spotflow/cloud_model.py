"""Instance-type catalog and per-task execution-time modelling.

An instance type carries an hourly on-demand price, a deterministic CPU
speed and calibrated probability distributions for its sequential I/O,
random I/O and network bandwidths.  A task is described by a five-field
resource profile; its execution time on a type is the CPU time plus the
data volumes divided by bandwidth draws.
"""

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .distributions import DEFAULT_SAMPLE_COUNT, EmpiricalDistribution, substream

SECONDS_PER_HOUR = 3600.0
# Every time the program accepts (deadlines, acquisition lags, arrivals, task
# durations, trace cycles; seconds) lies below it: the simulator's clock is int64.
CLOCK_BOUND = float(2**63)


class CatalogError(ValueError):
    """Raised for malformed catalog files or inconsistent catalogs."""


def _require_finite(spec):
    if not all(map(math.isfinite, astuple(spec))):
        raise CatalogError("%r: parameters must be finite" % (spec,))


@dataclass(frozen=True)
class GammaSpec:
    """Gamma(shape k, scale theta) bandwidth model, units MB/s."""

    k: float
    theta: float

    def __post_init__(self):
        _require_finite(self)

    def draw(self, rng, n):
        return rng.gamma(self.k, self.theta, size=n)


@dataclass(frozen=True)
class NormalSpec:
    """Normal(mu, sigma) bandwidth model, truncated at zero when sampled."""

    mu: float
    sigma: float

    def __post_init__(self):
        _require_finite(self)

    def draw(self, rng, n):
        if self.sigma == 0:
            return np.full(n, self.mu)
        return rng.normal(self.mu, self.sigma, size=n)


@dataclass(frozen=True)
class InstanceType:
    id: int
    name: str
    ondemand_price: float           # USD per hour
    cpu_speed: float                # instructions per second
    seq_io: GammaSpec
    rnd_io: NormalSpec
    net_in: GammaSpec
    net_out: GammaSpec
    acquisition_lag_ondemand: float = 120.0   # seconds
    acquisition_lag_spot: float = 420.0       # seconds

    def __post_init__(self):
        for name in ("ondemand_price", "cpu_speed"):
            if not 0 < getattr(self, name) < math.inf:
                raise CatalogError("%s must be positive and finite: %s" % (name, self.name))
        for name in ("acquisition_lag_ondemand", "acquisition_lag_spot"):
            if not 0 <= getattr(self, name) < CLOCK_BOUND:
                raise CatalogError("%s must be in [0, %g) s: %s" % (name, CLOCK_BOUND, self.name))

    def lag(self, is_spot):
        return self.acquisition_lag_spot if is_spot else self.acquisition_lag_ondemand


@dataclass(frozen=True)
class TaskProfile:
    """Resource profile of one task.

    instructions: total instruction count; *_mb fields are data volumes in
    MB for sequential I/O, random I/O, network download and upload.
    """

    instructions: float = 0.0
    seq_io_mb: float = 0.0
    rnd_io_mb: float = 0.0
    net_in_mb: float = 0.0
    net_out_mb: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            if not 0 <= getattr(self, field.name) < math.inf:
                raise ValueError("%s must be nonnegative and finite" % field.name)


class Catalog:
    """Ordered collection of instance types, cheapest first, with unique names.

    The strict price ordering is load-bearing: spot refinement scans
    candidate spot types from the most expensive id down to a task's
    on-demand type id, which must cover exactly the instances at least as
    expensive as the on-demand one.  Immutable after construction;
    safe to share across threads.
    """

    def __init__(self, types):
        types = list(types)
        if not types:
            raise CatalogError("catalog must contain at least one type")
        for i, itype in enumerate(types):
            if itype.id != i:
                raise CatalogError(
                    "type ids must be 0..n-1 in order; got id %d at position %d"
                    % (itype.id, i)
                )
            if any(t.name == itype.name for t in types[:i]):
                raise CatalogError("instance type name %r is used twice" % itype.name)
        prices = [t.ondemand_price for t in types]
        if any(a >= b for a, b in zip(prices, prices[1:])):
            raise CatalogError("catalog must be strictly ordered by ascending price")
        self._types = tuple(types)

    def __len__(self):
        return len(self._types)

    def __iter__(self):
        return iter(self._types)

    def __getitem__(self, type_id):
        return self._types[type_id]

    def cheapest(self):
        return self._types[0]

    def most_expensive(self):
        return self._types[-1]

    def by_name(self, name):
        for t in self._types:
            if t.name == name:
                return t
        raise CatalogError("unknown instance type %r (known: %s)"
                           % (name, ", ".join(t.name for t in self._types)))


_CATALOG_COLUMNS = [
    "id", "name", "ondemand_price", "cpu_speed",
    "seq_k", "seq_theta", "rnd_mu", "rnd_sigma",
    "in_k", "in_theta", "out_k", "out_theta",
    "lag_ondemand", "lag_spot",
]


def load_catalog(path):
    """Parse a catalog CSV (one record per instance type).

    Columns: id,name,ondemand_price,cpu_speed,seq_k,seq_theta,rnd_mu,
    rnd_sigma,in_k,in_theta,out_k,out_theta,lag_ondemand,lag_spot.
    Lines starting with '#' and blank lines are ignored.  A header line is
    optional.  Parse errors report the offending line number.
    """
    types = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = [f.strip() for f in line.split(",")]
                if fields[0] == "id":  # header
                    continue
                if len(fields) != len(_CATALOG_COLUMNS):
                    raise CatalogError(
                        "%s:%d: expected %d fields, got %d"
                        % (path, lineno, len(_CATALOG_COLUMNS), len(fields))
                    )
                try:
                    nums = [float(f) for f in fields[2:]]
                    types.append(InstanceType(
                        int(fields[0]), fields[1], nums[0], nums[1],
                        GammaSpec(*nums[2:4]), NormalSpec(*nums[4:6]),
                        GammaSpec(*nums[6:8]), GammaSpec(*nums[8:10]), *nums[10:12]))
                except (ValueError, CatalogError) as exc:
                    raise CatalogError("%s:%d: %s" % (path, lineno, exc)) from exc
    except UnicodeDecodeError as exc:
        raise CatalogError("%s: %s" % (path, exc)) from None
    if not types:
        raise CatalogError("%s: catalog file contains no records" % path)
    try:
        return Catalog(types)
    except CatalogError as exc:
        raise CatalogError("%s: %s" % (path, exc)) from exc


def default_catalog():
    """Catalog of the four m1 instance types with calibrated bandwidths.

    Prices and bandwidth distribution parameters come from published EC2
    measurements (US East, 2013).  CPU speeds are synthetic: the published
    data does not include per-type instruction rates, so we use 1:2:4:8
    ratios (matching ECU ratios) with the small type at 1e9 instr/s.
    """
    return Catalog([
        InstanceType(0, "m1.small", 0.06, 1e9,
                     GammaSpec(129.3, 0.79), NormalSpec(150.3, 50.0),
                     GammaSpec(51.8, 1.8), GammaSpec(107.3, 0.55)),
        InstanceType(1, "m1.medium", 0.12, 2e9,
                     GammaSpec(127.1, 0.80), NormalSpec(128.9, 8.4),
                     GammaSpec(279.9, 0.55), GammaSpec(421.1, 0.27)),
        InstanceType(2, "m1.large", 0.24, 4e9,
                     GammaSpec(376.6, 0.28), NormalSpec(172.9, 34.8),
                     GammaSpec(6187.7, 0.44), GammaSpec(571.4, 0.22)),
        InstanceType(3, "m1.xlarge", 0.48, 8e9,
                     GammaSpec(408.1, 0.26), NormalSpec(1034.0, 146.4),
                     GammaSpec(15313.4, 0.23), GammaSpec(420.3, 0.29)),
    ])


def _positive_draw(spec, rng, n):
    """Draw n strictly positive bandwidth samples, rejecting zeros/negatives."""
    out = np.asarray(spec.draw(rng, n), dtype=np.float64)
    for _ in range(1000):
        bad = out <= 0.0
        count = int(bad.sum())
        if count == 0:
            return out
        out[bad] = spec.draw(rng, count)
    raise ValueError("bandwidth model %r produces no positive mass" % (spec,))


_PROFILE_BANDS = (
    ("seq_io_mb", "seq_io"),
    ("rnd_io_mb", "rnd_io"),
    ("net_in_mb", "net_in"),
    ("net_out_mb", "net_out"),
)


def sample_task_time(profile, itype, n, seed=0):
    """n realized execution times of a task on an instance type (seconds).

    T = instructions/cpu_speed + sum(data / bandwidth draw) over the four
    bandwidth resources.  The CPU term is deterministic; bandwidth terms
    with zero data volume contribute nothing and are not sampled.  The one
    sampler of the execution-time law: the planner's distributions and the
    simulator's durations both come from here.
    """
    rng = substream(seed, "task-time", itype.id)
    total = np.full(n, profile.instructions / itype.cpu_speed)
    for data_field, band_field in _PROFILE_BANDS:
        data_mb = getattr(profile, data_field)
        if data_mb > 0:
            total += data_mb / _positive_draw(getattr(itype, band_field), rng, n)
    return total


def task_time_distribution(profile, itype, n=DEFAULT_SAMPLE_COUNT, seed=0):
    """Execution-time distribution of a task on an instance type."""
    return EmpiricalDistribution(sample_task_time(profile, itype, n, seed))


def expected_ondemand_cost(price, dist):
    """Expected on-demand cost of a task (USD): hourly price times expected hours.

    Deliberately ignores instance-hour rounding; in a many-task service the
    rounding cost is amortized and modelling it here would over-constrain
    the plan search.
    """
    return price * dist.expectation() / SECONDS_PER_HOUR


def expected_task_time(profile, itype, n=DEFAULT_SAMPLE_COUNT, seed=0, dist=None):
    """Expected execution time of a task on a type (mean of the MC model).

    dist, when given, is the task's distribution on itype drawn with the
    same n and seed, and supplies the mean instead of a fresh draw.  A
    task with no data volume takes exactly its CPU time, returned as is:
    the mean of n equal floats need not equal the value.
    """
    if not any(getattr(profile, data_field) for data_field, _ in _PROFILE_BANDS):
        return profile.instructions / itype.cpu_speed
    if dist is None:
        dist = task_time_distribution(profile, itype, n=n, seed=seed)
    return dist.expectation()
