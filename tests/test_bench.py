"""Scaling-benchmark plumbing: slope math, table layout, validation."""

import numpy as np
import pytest

from chancorr import bench
from chancorr.adapter import correlation_estimate, hpcl_terms
from chancorr.bench import (BenchResult, fit_loglog_slope,
                            repr_dim_doubling_ratio, run_bench)
from chancorr.contrastive import aux_loss, threshold_masks


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
    # zero reps would report NaN medians, N = 0 an empty reduction
    with pytest.raises(ValueError, match="reps"):
        run_bench("inference", n_list=(2, 3, 4, 5), reps=0)
    with pytest.raises(ValueError, match="N >= 1"):
        run_bench("train-step", n_list=(0, 1, 2, 3), reps=1)
    # a repeated rung would fit a slope to fewer distinct points than asked
    for n_list in ((8, 8, 8, 8), (2, 4, 4, 8)):
        with pytest.raises(ValueError, match="strictly"):
            run_bench("inference", n_list=n_list, reps=1)


def test_run_bench_smoke_both_modes():
    for mode in ("inference", "train-step"):
        res = run_bench(mode, n_list=(2, 3, 4, 5), reps=1)
        assert res.mode == mode
        assert res.n_list == (2, 3, 4, 5)
        assert len(res.medians) == 4
        assert all(t > 0.0 for t in res.medians)
        assert np.isfinite(res.slope)


def test_train_step_bench_runs_the_training_hpcl_chain(monkeypatch):
    # every timed step goes through `hpcl_terms`, and its total is the
    # hand-composed estimate -> masks -> aux_loss, bit for bit
    totals = []

    def spy(state, repr_t, r, x_pos, x_neg):
        m = correlation_estimate(state, repr_t, r)
        masks = threshold_masks(m, state.eps, state.train_config)
        by_hand = aux_loss(x_pos, x_neg, masks, state.train_config)[2]
        terms = hpcl_terms(state, repr_t, r, x_pos, x_neg)
        totals.append((terms[2].data.tobytes(), by_hand.data.tobytes()))
        return terms

    monkeypatch.setattr(bench, "hpcl_terms", spy)
    bench.bench_train_step(n_list=(3, 5), reps=2, seed=0)
    assert len(totals) == 2 * 3          # warm-up plus reps, per rung
    assert all(got == want for got, want in totals)


def test_doubling_ratio_smoke():
    t1, t2, ratio = repr_dim_doubling_ratio(n_channels=6, repr_dim=4, reps=2)
    assert t1 > 0.0 and t2 > 0.0
    assert ratio == pytest.approx(t2 / t1)
