"""Generator statistics against sample-correlation oracles, CSV, windows."""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from chancorr import data as dt
from chancorr.correlation import pearson_matrix


def gen(kind, t_total=4096, noise=0.4, seed=0, segment_len=1024, n=8):
    structure = dt.planted_regime(kind, n_channels=n, segment_len=segment_len)
    series, truth = dt.generate_synthetic(structure, t_total, noise_std=noise, seed=seed)
    return series, truth


# ---------------------------------------------------------------------------
# planted correlation recovery (oracle: np.corrcoef, written independently of
# the package's own pearson_matrix)


def test_two_channel_strong_correlation_recovered():
    c = np.array([[1.0, 0.95], [0.95, 1.0]])
    structure = dt.PlantedStructure(segment_len=4096, matrices=[c])
    series, _ = dt.generate_synthetic(structure, 4096, noise_std=0.25, seed=11)
    rho = np.corrcoef(series.values)[0, 1]
    assert abs(rho - 0.95) < 0.03


def test_identity_structure_gives_near_zero_correlations():
    c = np.eye(3)
    structure = dt.PlantedStructure(segment_len=16384, matrices=[c])
    series, _ = dt.generate_synthetic(structure, 16384, noise_std=0.4, seed=12)
    rho = np.corrcoef(series.values)
    off = rho[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 0.05


@pytest.mark.parametrize("noise", [0.0, 0.4])
def test_planted_matrix_recovered_under_observation_noise(noise):
    # the noise-compensated innovations keep the observed Pearson on target
    structure = dt.planted_regime("heterogeneous", segment_len=8192)
    series, truth = dt.generate_synthetic(structure, 8192, noise_std=noise, seed=13)
    rho = np.corrcoef(series.values)
    err = np.abs(rho - truth.matrices[0])
    assert err.max() < 0.05


def test_dynamic_segments_differ_beyond_estimation_noise():
    series, truth = gen("dynamic", t_total=2048, seed=14)
    seg1 = np.corrcoef(series.values[:, :1024])
    seg2 = np.corrcoef(series.values[:, 1024:2048])
    diff = np.linalg.norm(seg1 - seg2)
    se = (1.0 - seg1 ** 2) / math.sqrt(1024)
    noise_scale = math.sqrt(float((se ** 2).sum() * 2))
    assert diff > 3 * noise_scale
    # and each segment tracks its own planted matrix
    assert np.abs(seg1 - truth.matrices[0]).max() < 0.1
    assert np.abs(seg2 - truth.matrices[1]).max() < 0.1


def test_generator_is_deterministic():
    a, _ = gen("partial", seed=7)
    b, _ = gen("partial", seed=7)
    c, _ = gen("partial", seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_seasonal_modulation_and_persistence_present():
    series, _ = gen("partial", t_total=8192, seed=15)
    x = series.values
    phase = np.arange(8192) % dt.SEASON_PERIOD
    var_peak = x[:, phase == 6].var()    # sin == 1
    var_trough = x[:, phase == 18].var()  # sin == -1
    assert var_peak / var_trough > 2.0
    lag1 = np.corrcoef(x[0, :-1], x[0, 1:])[0, 1]
    assert lag1 > 0.3  # AR(1) leaves the series forecastable


def test_non_psd_matrix_rejected():
    c = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
    with pytest.raises(dt.DataError):
        dt.PlantedStructure(segment_len=128, matrices=[c])


def test_rejects_noise_too_large_for_planted_spectrum():
    structure = dt.planted_regime("partial")  # min eigenvalue 0.25
    with pytest.raises(dt.DataError):
        dt.generate_synthetic(structure, 4096, noise_std=1.0, seed=0)


def test_rejects_series_too_short():
    structure = dt.planted_regime("partial", n_channels=8)
    with pytest.raises(dt.DataError):
        dt.generate_synthetic(structure, 63, noise_std=0.1, seed=0)


def test_structure_validation():
    with pytest.raises(dt.DataError):
        dt.PlantedStructure(segment_len=64, matrices=[np.array([[1.0, 0.2], [0.3, 1.0]])])
    with pytest.raises(dt.DataError):
        dt.PlantedStructure(segment_len=64, matrices=[np.array([[2.0, 0.0], [0.0, 1.0]])])
    with pytest.raises(dt.DataError):
        dt.planted_regime("weekly")


# ---------------------------------------------------------------------------
# regime verification (oracle: the paper's Definitions 2-4 tested on
# per-segment Pearson matrices)


@dataclass
class RegimeReport:
    dynamic: bool
    heterogeneous: bool
    partial: bool
    n_segments: int
    max_change_score: float = 0.0   # Definition 2 statistic, in standard errors

    def tags(self) -> dict:
        return {"dynamic": self.dynamic, "heterogeneous": self.heterogeneous,
                "partial": self.partial}


def verify_regime(series: dt.MultivariateSeries, segment_len: int,
                  eps: float = 0.2) -> RegimeReport:
    """Test Definitions 2-4 on per-segment Pearson matrices.

    Definition 2 (dynamic) compares every pair of segments entrywise with a
    noise-aware margin: two standard errors plus a max-of-Gaussians allowance
    sqrt(2 ln(#comparisons)) so that noise alone does not trip it.  The
    standard error carries Bartlett's autocorrelation inflation
    sqrt((1 + r1_i * r1_j) / (1 - r1_i * r1_j)), with r1 the per-channel
    lag-1 autocorrelation, because persistent series estimate correlations
    less precisely than i.i.d. ones.  Definitions 3-4 call an entry
    positive/negative/absent only beyond the significance threshold ``eps``.
    """
    n, t_total = series.n_channels, series.length
    if segment_len < 8 * n:
        raise dt.DataError(f"segment length {segment_len} too short for {n} channels "
                        f"(need at least {8 * n})")
    k = t_total // segment_len
    if k < 1:
        raise dt.DataError("series shorter than one segment")
    segments = series.values[:, :k * segment_len].reshape(n, k, segment_len)
    mats = pearson_matrix(np.swapaxes(segments, 0, 1))       # (k, N, N)

    off = ~np.eye(n, dtype=bool)
    heterogeneous = False
    partial = False
    if n >= 2:
        partial = bool((np.abs(mats[:, off]) < eps).any())
    if n >= 3:
        pos = mats > eps
        neg = mats < -eps
        np.einsum("kii->ki", pos)[...] = False
        heterogeneous = bool((pos.any(axis=-1) & neg.any(axis=-1)).any())

    dynamic = False
    max_score = 0.0
    if k >= 2 and n >= 2:
        lead = segments[:, :, :-1] - segments[:, :, :-1].mean(axis=-1, keepdims=True)
        lag = segments[:, :, 1:] - segments[:, :, 1:].mean(axis=-1, keepdims=True)
        denom = np.sqrt((lead ** 2).sum(axis=-1) * (lag ** 2).sum(axis=-1))
        r1 = (lead * lag).sum(axis=-1) / np.maximum(denom, 1e-12)   # (N, k)
        prod = np.clip(r1.T[:, :, None] * r1.T[:, None, :], -0.99, 0.99)
        inflation = np.sqrt((1.0 + prod) / (1.0 - prod))            # (k, N, N)
        se = (1.0 - mats ** 2) / math.sqrt(segment_len) * inflation
        n_tests = k * (k - 1) // 2 * int(off.sum())
        margin = 2.0 + math.sqrt(2.0 * math.log(max(n_tests, 2)))
        for m in range(k):
            for nn in range(m + 1, k):
                denom = np.sqrt(se[m] ** 2 + se[nn] ** 2)
                denom = np.maximum(denom, 1e-12)
                score = np.abs(mats[m] - mats[nn]) / denom
                max_score = max(max_score, float(score[off].max()))
        dynamic = max_score > margin
    return RegimeReport(dynamic=dynamic, heterogeneous=heterogeneous,
                        partial=partial, n_segments=k, max_change_score=max_score)



def test_iid_channels_are_partial_only():
    rng = np.random.default_rng(16)
    series = dt.MultivariateSeries(values=rng.normal(size=(4, 4096)))
    report = verify_regime(series, 1024, eps=0.2)
    assert not report.dynamic
    assert not report.heterogeneous
    assert report.partial


def test_single_channel_has_no_regime():
    rng = np.random.default_rng(17)
    series = dt.MultivariateSeries(values=rng.normal(size=(1, 2048)))
    report = verify_regime(series, 512)
    assert not (report.dynamic or report.heterogeneous or report.partial)


def test_verify_matches_planted_tags_for_each_preset():
    for kind in ("dynamic", "heterogeneous", "partial"):
        series, truth = gen(kind, seed=18)
        report = verify_regime(series, truth.segment_len)
        assert report.tags() == truth.tags, kind


def test_verify_agreement_rate_over_seeds():
    kinds = ("dynamic", "heterogeneous", "partial")
    hits = 0
    for trial in range(100):
        kind = kinds[trial % 3]
        series, truth = gen(kind, seed=1000 + trial)
        if verify_regime(series, truth.segment_len).tags() == truth.tags:
            hits += 1
    assert hits >= 95


def test_verify_rejects_short_segments():
    rng = np.random.default_rng(19)
    series = dt.MultivariateSeries(values=rng.normal(size=(8, 256)))
    with pytest.raises(dt.DataError):
        verify_regime(series, 32)


# ---------------------------------------------------------------------------
# CSV + sidecar


def test_csv_parse_small_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("date,a,b\n2016-07-01,1.5,-2.0\n2016-07-02,0.25,3e2\n"
                    "2016-07-03,7,8\n")
    series = dt.load_csv(path)
    assert series.channel_names == ["a", "b"]
    assert series.timestamps == ["2016-07-01", "2016-07-02", "2016-07-03"]
    assert np.array_equal(series.values,
                          np.array([[1.5, 0.25, 7.0], [-2.0, 300.0, 8.0]]))


def test_csv_unparseable_cell_names_row_and_column(tmp_path):
    path = tmp_path / "t.csv"
    rows = ["date,a,b"] + [f"{i},{i}.0,{i}.5" for i in range(1, 5)]
    rows.append("5,oops,5.5")
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(dt.DataError, match=r"row 5.*'a'"):
        dt.load_csv(path)


def test_csv_value_past_the_header_names_its_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("date,a,b\n0,1,2,,\n1,2,3, \n")      # empty extras are fine
    series = dt.load_csv(path)
    assert np.array_equal(series.values, np.array([[1.0, 2.0], [2.0, 3.0]]))
    path.write_text("date,a,b\n0,1,2\n1,2,3,99\n")
    with pytest.raises(dt.DataError, match=r"row 2 .*past the header's 3 columns"):
        dt.load_csv(path)


def test_csv_nan_and_empty_rows_dropped_and_reported(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("date,a,b\n1,1.0,2.0\n2,nan,3.0\n3,4.0,\n4,5.0,6.0\n")
    series = dt.load_csv(path)
    assert series.dropped_rows == (2, 3)
    assert np.array_equal(series.values, np.array([[1.0, 5.0], [2.0, 6.0]]))


def test_csv_missing_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,a\n1,2.0\n")
    with pytest.raises(dt.DataError):
        dt.load_csv(path)                       # no 'date' column
    path.write_text("date\n1\n2\n")
    with pytest.raises(dt.DataError, match="no channel columns"):
        dt.load_csv(path)


def test_csv_round_trip_bit_identical(tmp_path):
    series, _ = gen("heterogeneous", t_total=256, seed=20)
    path = tmp_path / "s.csv"
    dt.save_csv(path, series)
    loaded = dt.load_csv(path)
    assert np.array_equal(loaded.values, series.values)
    assert loaded.channel_names == series.channel_names


def test_truth_sidecar_round_trip(tmp_path):
    structure = dt.planted_regime("dynamic")
    path = tmp_path / "truth.json"
    dt.save_truth(path, structure, noise_std=0.4, seed=3)
    doc = json.loads(path.read_text())
    assert doc["segment_len"] == structure.segment_len
    assert doc["tags"] == structure.tags
    assert len(doc["matrices"]) == 2
    for a, b in zip(doc["matrices"], structure.matrices):
        assert np.array_equal(np.asarray(a), b)
    assert (doc["noise_std"], doc["seed"]) == (0.4, 3)


# ---------------------------------------------------------------------------
# windows


def series_of_length(t):
    rng = np.random.default_rng(21)
    return dt.MultivariateSeries(values=rng.normal(size=(3, t)))


def test_exactly_one_window_at_minimum_length():
    spec = dt.SplitSpec(train_frac=1.0, val_frac=0.0, test_frac=0.0)
    train, val, test = dt.make_windows(series_of_length(24 + 8), spec, 24, 8)
    assert len(train) == 1 and len(val) == 0 and len(test) == 0
    assert train.x.shape == (1, 3, 24) and train.y.shape == (1, 3, 8)


def test_stride_equal_horizon_counting_formula():
    t, lb, hz = 500, 24, 8
    spec = dt.SplitSpec(train_frac=1.0, val_frac=0.0, test_frac=0.0, stride=hz)
    train, _, _ = dt.make_windows(series_of_length(t), spec, lb, hz)
    assert len(train) == (t - lb - hz) // hz + 1
    assert set(np.diff(train.starts)) == {hz}   # non-overlapping targets


def test_windows_content_matches_source():
    series = series_of_length(200)
    spec = dt.SplitSpec(stride=3)
    train, val, test = dt.make_windows(series, spec, 12, 4)
    for ws in (train, val, test):
        for i in range(len(ws)):
            s = ws.starts[i]
            assert np.array_equal(ws.x[i], series.values[:, s:s + 12])
            assert np.array_equal(ws.y[i], series.values[:, s + 12:s + 16])


def test_no_window_crosses_split_boundaries():
    t = 1000
    spec = dt.SplitSpec(train_frac=0.6, val_frac=0.2, test_frac=0.2)
    train, val, test = dt.make_windows(series_of_length(t), spec, 24, 8)
    t1, t2 = 600, 800
    assert train.starts.min() >= 0 and train.starts.max() + 32 <= t1
    assert val.starts.min() >= t1 and val.starts.max() + 32 <= t2
    assert test.starts.min() >= t2 and test.starts.max() + 32 <= t


def test_few_shot_takes_last_fraction():
    # train region sized to produce exactly 1000 windows at stride 1
    lb, hz = 24, 8
    t = 999 + lb + hz
    spec_full = dt.SplitSpec(train_frac=1.0, val_frac=0.0, test_frac=0.0)
    full, _, _ = dt.make_windows(series_of_length(t), spec_full, lb, hz)
    assert len(full) == 1000
    spec = dt.SplitSpec(train_frac=1.0, val_frac=0.0, test_frac=0.0,
                        few_shot_frac=0.05)
    few, _, _ = dt.make_windows(series_of_length(t), spec, lb, hz)
    assert len(few) == 50
    assert np.array_equal(few.starts, full.starts[-50:])


def test_insufficient_split_raises():
    spec = dt.SplitSpec(train_frac=0.7, val_frac=0.1, test_frac=0.2)
    with pytest.raises(dt.DataError):
        dt.make_windows(series_of_length(100), spec, 24, 8)  # val region ~10


@pytest.mark.parametrize("fracs", [(math.nan, 0.1, 0.2), (0.7, math.nan, 0.2),
                                   (0.7, 0.1, math.nan), (math.inf, 0.0, -math.inf)])
def test_split_spec_rejects_non_finite_fractions(fracs):
    with pytest.raises(dt.DataError, match="finite"):
        dt.SplitSpec(*fracs)


def _gapped_csv(path, blank_lines=False):
    """12 rows, 2 channels, NaN in data row 6; channel ``a`` holds the
    row's time index, so a window is gap-free when ``a`` steps by 1."""
    rows = [f"{t},{'nan' if t == 5 else t},{2 * t}" for t in range(12)]
    if blank_lines:
        rows.insert(5, "")          # just before the NaN row
        rows.insert(2, ",")
    path.write_text("date,a,b\n" + "\n".join(rows) + "\n")
    return dt.load_csv(path)


@pytest.mark.parametrize("blank_lines", [False, True])
def test_windows_never_span_dropped_rows(tmp_path, blank_lines):
    series = _gapped_csv(tmp_path / "g.csv", blank_lines)
    assert series.gaps == (5,)
    spec = dt.SplitSpec(train_frac=1.0, val_frac=0.0, test_frac=0.0)
    train, _, _ = dt.make_windows(series, spec, 3, 2)
    # 7 windows fit in 11 kept rows; the 4 that start at 1..4 cross the gap
    assert train.starts.tolist() == [0, 5, 6]
    for x, y in zip(train.x, train.y):
        assert np.all(np.diff(np.concatenate([x[0], y[0]])) == 1.0)


def _stacked_windows(series, spec, lookback, horizon):
    """The per-window ``np.stack`` composition that make_windows replaced,
    kept as its bitwise oracle."""
    def region(lo, hi):
        width = lookback + horizon
        starts = np.arange(lo, hi - width + 1, spec.stride, dtype=np.int64)
        ends = np.append(np.asarray(series.gaps, dtype=np.int64), series.length)
        starts = starts[ends[np.searchsorted(ends, starts, side="right")]
                        >= starts + width]
        if len(starts) == 0:
            return (np.zeros((0, series.n_channels, lookback)),
                    np.zeros((0, series.n_channels, horizon)), starts)
        return (np.stack([series.values[:, s:s + lookback] for s in starts]),
                np.stack([series.values[:, s + lookback:s + width] for s in starts]),
                starts)

    t = series.length
    t1 = int(round(spec.train_frac * t))
    t2 = min(t1 + int(round(spec.val_frac * t)), t)
    train, val, test = region(0, t1), region(t1, t2), region(t2, t)
    if spec.few_shot_frac < 1.0:
        keep = max(1, int(round(spec.few_shot_frac * len(train[2]))))
        train = tuple(a[-keep:] for a in train)
    return train, val, test


@pytest.mark.parametrize("make, spec, lookback, horizon", [
    (lambda _: series_of_length(300), dt.SplitSpec(stride=1), 12, 4),
    (lambda _: series_of_length(300), dt.SplitSpec(stride=3), 12, 4),
    (lambda _: series_of_length(300), dt.SplitSpec(stride=7), 12, 4),
    (lambda _: series_of_length(600), dt.SplitSpec(few_shot_frac=0.05), 24, 8),
    # 0.001 * 389 train windows rounds to 0, so keep rounds up to 1
    (lambda _: series_of_length(600), dt.SplitSpec(few_shot_frac=0.001), 24, 8),
    (lambda _: series_of_length(300), dt.SplitSpec(0.8, 0.0, 0.2), 12, 4),
    (lambda _: series_of_length(32), dt.SplitSpec(1.0, 0.0, 0.0), 24, 8),
    (lambda tmp: _gapped_csv(tmp / "g.csv"), dt.SplitSpec(1.0, 0.0, 0.0), 3, 2),
], ids=["stride1", "stride3", "stride7", "few_shot", "few_shot_keeps_one",
        "empty_zero_frac_region", "one_window_series", "gapped_csv"])
def test_windows_match_the_stacked_oracle_bitwise(tmp_path, make, spec, lookback, horizon):
    series = make(tmp_path)
    got = dt.make_windows(series, spec, lookback, horizon)
    for ws, want in zip(got, _stacked_windows(series, spec, lookback, horizon)):
        for a, b in zip((ws.x, ws.y, ws.starts), want):
            assert (a.shape, a.strides, a.dtype) == (b.shape, b.strides, b.dtype)
            assert a.tobytes() == b.tobytes()


def test_few_shot_windows_own_their_data():
    # a slice of the full train windows would keep all of them alive
    spec = dt.SplitSpec(few_shot_frac=0.05)
    train, _, _ = dt.make_windows(series_of_length(600), spec, 24, 8)
    assert [a.flags.owndata for a in (train.x, train.y, train.starts)] == [True] * 3


@pytest.mark.parametrize("arg", ["lookback", "horizon"])
@pytest.mark.parametrize("value", [0, -2, 5.5, True])
def test_make_windows_rejects_a_bad_lookback_or_horizon(arg, value):
    sizes = {"lookback": 4, "horizon": 2, arg: value}
    with pytest.raises(dt.DataError, match=arg):
        dt.make_windows(series_of_length(50), dt.SplitSpec(), **sizes)


def test_gap_free_series_records_no_gaps(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("date,a\n1,nan\n2,1.0\n\n3,2.0\n4,nan\n")
    series = dt.load_csv(path)
    assert series.dropped_rows == (1, 5)
    assert series.gaps == ()        # leading/trailing drops and blanks


def test_split_spec_validation():
    # a fractional stride once stepped by 1, and True passed as 1
    for bad in ({"train_frac": 0.5, "val_frac": 0.1, "test_frac": 0.2},
                {"few_shot_frac": 0.0}, {"stride": 0}, {"stride": 1.5},
                {"stride": True},
                {"train_frac": True, "val_frac": 0.0, "test_frac": 0.0}):
        with pytest.raises(dt.DataError):
            dt.SplitSpec(**bad)
