import dataclasses
import math
import re

import numpy as np
import pytest

from spotflow.cloud_model import (
    CLOCK_BOUND,
    Catalog,
    CatalogError,
    GammaSpec,
    InstanceType,
    NormalSpec,
    TaskProfile,
    _positive_draw,
    default_catalog,
    expected_ondemand_cost,
    load_catalog,
    sample_task_time,
    task_time_distribution,
)
from spotflow.distributions import EmpiricalDistribution, substream

from conftest import ordered_catalog, save_catalog


class TestTaskTimeDistribution:
    def test_empty_profile_is_zero(self):
        cat = default_catalog()
        d = task_time_distribution(TaskProfile(), cat[0], n=100, seed=1)
        assert d.sorted_samples[0] == d.sorted_samples[-1] == 0.0

    def test_cpu_only_is_deterministic(self):
        cat = default_catalog()
        d = task_time_distribution(TaskProfile(instructions=1e9), cat[0], n=100, seed=1)
        assert d.sorted_samples[0] == d.sorted_samples[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("volume", ["seq_io_mb", "rnd_io_mb", "net_in_mb", "net_out_mb"])
    def test_one_mb_of_one_volume_adds_transfer_time(self, volume):
        itype = default_catalog()[0]
        profile = TaskProfile(instructions=1e9, **{volume: 1.0})
        drawn = sample_task_time(profile, itype, 200, seed=5)
        assert np.all(drawn > 1e9 / itype.cpu_speed)

    def test_seq_io_mean_matches_inverse_gamma_oracle(self):
        # For B ~ Gamma(k, theta), E[1/B] = 1/(theta * (k - 1)).
        cat = default_catalog()
        d = task_time_distribution(TaskProfile(seq_io_mb=1021), cat[0], n=10_000, seed=2)
        oracle = 1021.0 / (0.79 * (129.3 - 1.0))
        assert d.expectation() == pytest.approx(oracle, rel=0.03)

    def test_monotone_in_profile(self):
        cat = default_catalog()
        small = TaskProfile(instructions=1e9, seq_io_mb=100, rnd_io_mb=10,
                            net_in_mb=20, net_out_mb=20)
        big = TaskProfile(instructions=2e9, seq_io_mb=200, rnd_io_mb=20,
                          net_in_mb=40, net_out_mb=40)
        d1 = task_time_distribution(small, cat[1], n=2000, seed=3)
        d2 = task_time_distribution(big, cat[1], n=2000, seed=3)
        for q in np.linspace(0, 1, 11):
            assert d2.percentile(q) >= d1.percentile(q)

    def test_band_samples_never_zero(self):
        # A normal band with heavy negative mass must still yield finite times.
        itype = InstanceType(0, "x", 0.06, 1e9,
                             GammaSpec(100, 1.0), NormalSpec(0.5, 2.0),
                             GammaSpec(100, 1.0), GammaSpec(100, 1.0))
        d = task_time_distribution(TaskProfile(rnd_io_mb=10), itype, n=2000, seed=4)
        assert np.all(np.isfinite(d.samples))
        assert d.sorted_samples[0] > 0

    @pytest.mark.parametrize("type_id", [0, 3])
    def test_distribution_wraps_the_sampler(self, type_id):
        # The planner's distributions and the simulator's durations share
        # one sampler: equal arguments give the same samples, bit for bit.
        itype = default_catalog()[type_id]
        profile = TaskProfile(instructions=3e11, seq_io_mb=900, rnd_io_mb=40,
                              net_in_mb=300, net_out_mb=120)
        drawn = sample_task_time(profile, itype, 500, seed=17)
        assert isinstance(drawn, np.ndarray) and drawn.shape == (500,)
        assert np.array_equal(task_time_distribution(profile, itype, n=500, seed=17).samples,
                              drawn)


class TestExpectedCost:
    def test_one_hour_task(self):
        cat = default_catalog()
        d = EmpiricalDistribution(np.full(10, 3600.0))
        assert expected_ondemand_cost(cat[0].ondemand_price, d) == pytest.approx(0.06)

    def test_half_hour_on_medium(self):
        cat = default_catalog()
        d = EmpiricalDistribution(np.full(10, 1800.0))
        assert expected_ondemand_cost(cat[1].ondemand_price, d) == pytest.approx(0.06)

    def test_linearity_of_expectation(self):
        cat = default_catalog()
        d = EmpiricalDistribution(
            _positive_draw(GammaSpec(7200.0, 1.0), substream(5, "gamma"), 10_000))
        assert expected_ondemand_cost(cat[2].ondemand_price, d) == pytest.approx(
            0.24 * d.expectation() / 3600.0)

    def test_linear_in_price(self):
        d = EmpiricalDistribution(np.full(10, 1800.0))
        c1 = expected_ondemand_cost(default_catalog()[0].ondemand_price, d)
        c2 = expected_ondemand_cost(default_catalog()[1].ondemand_price, d)
        assert c2 == pytest.approx(2 * c1)


class TestCatalog:
    def test_default_prices_exact(self):
        cat = default_catalog()
        assert [t.ondemand_price for t in cat] == [0.06, 0.12, 0.24, 0.48]
        assert [t.name for t in cat] == ["m1.small", "m1.medium", "m1.large", "m1.xlarge"]

    def test_default_lags(self):
        cat = default_catalog()
        assert cat[0].acquisition_lag_ondemand == 120.0
        assert cat[0].acquisition_lag_spot == 420.0

    def test_rejects_unsorted_prices(self):
        t0 = default_catalog()[0]
        with pytest.raises(CatalogError):
            Catalog([
                InstanceType(0, "a", 0.12, 1e9, t0.seq_io, t0.rnd_io, t0.net_in, t0.net_out),
                InstanceType(1, "b", 0.06, 1e9, t0.seq_io, t0.rnd_io, t0.net_in, t0.net_out),
            ])

    def test_rejects_a_repeated_type_name(self):
        t0 = default_catalog()[0]
        types = [InstanceType(i, name, price, 1e9, t0.seq_io, t0.rnd_io, t0.net_in, t0.net_out)
                 for i, (name, price) in enumerate([("a", 0.06), ("b", 0.12), ("a", 0.24)])]
        with pytest.raises(CatalogError, match="instance type name 'a' is used twice"):
            Catalog(types)

    def test_roundtrip(self, tmp_path):
        cat = ordered_catalog(3, lag_od=120, lag_spot=420)
        path = tmp_path / "catalog.csv"
        save_catalog(cat, path)
        loaded = load_catalog(path)
        assert len(loaded) == 3
        assert loaded[1].ondemand_price == cat[1].ondemand_price
        assert loaded[2].seq_io == cat[2].seq_io

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,name,ondemand_price,cpu_speed,seq_k,seq_theta,rnd_mu,"
                        "rnd_sigma,in_k,in_theta,out_k,out_theta,lag_ondemand,lag_spot\n"
                        "0,ok,0.06,1e9,100,1,100,10,100,1,100,1,0,0\n"
                        "1,broken,not-a-number,1e9,100,1,100,10,100,1,100,1,0,0\n")
        with pytest.raises(CatalogError, match=":3:"):
            load_catalog(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_field_reports_line_number(self, tmp_path, bad):
        cat = ordered_catalog(2)
        path = tmp_path / "catalog.csv"
        save_catalog(cat, path)
        rows = path.read_text().splitlines()
        fields = rows[2].split(",")
        fields[5] = bad  # seq_theta of type 1
        path.write_text("\n".join(rows[:2] + [",".join(fields)]) + "\n")
        # GammaSpec owns the check; load_catalog adds the line number.
        with pytest.raises(CatalogError, match=r":3: GammaSpec\(.*\): parameters must be finite"):
            load_catalog(path)

    def test_lag_past_the_clock_bound_reports_line_number(self, tmp_path):
        path = tmp_path / "catalog.csv"
        save_catalog(ordered_catalog(2), path)
        rows = path.read_text().splitlines()
        rows[2] = ",".join(rows[2].split(",")[:-1] + ["1e19"])  # lag_spot of type 1
        path.write_text("\n".join(rows) + "\n")
        message = ":3: acquisition_lag_spot must be in [0, %g) s" % CLOCK_BOUND
        with pytest.raises(CatalogError, match=re.escape(message)):
            load_catalog(path)


def test_profile_rejects_negative_fields():
    with pytest.raises(ValueError):
        TaskProfile(instructions=-1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_profile_rejects_non_finite_fields(bad):
    for field in ("instructions", "seq_io_mb", "rnd_io_mb", "net_in_mb", "net_out_mb"):
        with pytest.raises(ValueError, match=field):
            TaskProfile(**{field: bad})


@pytest.mark.parametrize("field", ["ondemand_price", "cpu_speed",
                                   "acquisition_lag_ondemand", "acquisition_lag_spot"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_instance_type_rejects_non_finite_numbers(field, bad):
    t0 = default_catalog()[0]
    with pytest.raises(CatalogError, match=field):
        dataclasses.replace(t0, **{field: bad})


@pytest.mark.parametrize("spec, kwargs", [
    (GammaSpec, {"k": 100.0, "theta": 1.0}),
    (NormalSpec, {"mu": 100.0, "sigma": 10.0}),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bandwidth_specs_reject_non_finite_parameters(spec, kwargs, bad):
    for name in kwargs:
        with pytest.raises(CatalogError, match="must be finite"):
            spec(**dict(kwargs, **{name: bad}))
    drawn = _positive_draw(spec(**kwargs), substream(0, "mean"), 10_000)
    assert drawn.mean() == pytest.approx(100.0, rel=0.01)


def test_by_name_unknown_type_names_the_known_types():
    with pytest.raises(CatalogError, match="m1.small, m1.medium, m1.large, m1.xlarge"):
        default_catalog().by_name("m1.nope")
