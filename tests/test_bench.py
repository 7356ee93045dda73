"""Scaling-benchmark plumbing: slope math, table layout, validation."""

import numpy as np
import pytest

from chancorr.bench import (BenchResult, fit_loglog_slope,
                            repr_dim_doubling_ratio, run_bench)


def test_loglog_slope_recovers_power_laws_exactly():
    n = np.array([4, 8, 16, 32, 64])
    for alpha in (0.5, 1.0, 2.0):
        t = 3.7e-4 * n.astype(float) ** alpha
        assert fit_loglog_slope(n, t) == pytest.approx(alpha, abs=1e-12)


def test_loglog_slope_of_constant_times_is_zero():
    assert fit_loglog_slope([2, 4, 8, 16], [0.25] * 4) == pytest.approx(0.0, abs=1e-12)


def test_table_layout():
    res = BenchResult(mode="inference", n_list=(2, 4, 8, 16),
                      medians=[1e-3, 2e-3, 4e-3, 8e-3], slope=1.0)
    lines = res.table().splitlines()
    assert lines[0] == "n_channels,median_seconds"
    assert lines[1] == "2,0.001000000"
    assert lines[-1] == "slope,1.000000"
    assert len(lines) == 6
    assert res.table().endswith("\n")


def test_run_bench_rejects_bad_requests():
    with pytest.raises(ValueError):
        run_bench("inference", n_list=(8, 4, 2, 1), reps=1)
    with pytest.raises(ValueError):
        run_bench("inference", n_list=(2, 4, 8), reps=1)
    with pytest.raises(ValueError):
        run_bench("warp-drive", n_list=(2, 4, 8, 16), reps=1)


def test_run_bench_smoke_both_modes():
    for mode in ("inference", "train-step"):
        res = run_bench(mode, n_list=(2, 3, 4, 5), reps=1)
        assert res.mode == mode
        assert res.n_list == (2, 3, 4, 5)
        assert len(res.medians) == 4
        assert all(t > 0.0 for t in res.medians)
        assert np.isfinite(res.slope)


def test_doubling_ratio_smoke():
    t1, t2, ratio = repr_dim_doubling_ratio(n_channels=6, repr_dim=4, reps=2)
    assert t1 > 0.0 and t2 > 0.0
    assert ratio == pytest.approx(t2 / t1)
