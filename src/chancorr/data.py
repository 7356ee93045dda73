"""Synthetic series with planted correlation structure, CSV I/O, windowing.

The generator plants a per-segment correlation matrix C and guarantees the
*observed* per-segment Pearson matrix converges to C as the segment grows,
even though the series is run through an AR(1) filter, a seasonal modulation,
and observation noise.  The trick is to generate innovations with a
noise-compensated correlation

    A = ((v + w) * C - w * I) / v

where w = noise_std**2 and v is the stationary variance of the filtered
signal.  Working backwards: AR(1) with coefficient phi preserves innovation
correlation; a *multiplicative* seasonal factor shared by all channels scales
covariance and variance alike, so it cancels in the correlation; additive
white observation noise then shrinks off-diagonals by v / (v + w), which the
A transform pre-amplifies away.  Requires lambda_min(C) >= w / (v + w) —
violations are rejected with the bound in the message.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .correlation import pearson_matrix
from .serialize import atomic_open

__all__ = [
    "DataError",
    "MultivariateSeries",
    "PlantedStructure",
    "SplitSpec",
    "WindowSet",
    "RegimeReport",
    "AR_COEFF",
    "SEASON_PERIOD",
    "SEASON_AMP",
    "planted_regime",
    "generate_synthetic",
    "verify_regime",
    "load_csv",
    "save_csv",
    "save_truth",
    "load_truth",
    "make_windows",
]

AR_COEFF = 0.7
SEASON_PERIOD = 24
SEASON_AMP = 0.3
# planted regimes: correlation within a channel block, |correlation| across
BLOCK_CORR = 0.75
CROSS_CORR = 0.6


class DataError(ValueError):
    """Bad dataset: unparseable file, infeasible structure, too short."""


@dataclass
class MultivariateSeries:
    values: np.ndarray                  # (N, T)
    channel_names: list = None
    timestamps: list = None             # optional, length T
    dropped_rows: tuple = ()            # 1-based data-row indices removed at load
    gaps: tuple = ()                    # ascending t: dropped rows lie between t-1 and t

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"series values must be (N, T), got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise DataError("series contains NaN or Inf after ingestion")
        if self.channel_names is None:
            self.channel_names = [f"ch{i}" for i in range(self.values.shape[0])]
        if len(self.channel_names) != self.values.shape[0]:
            raise DataError("channel_names length does not match value rows")

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass
class PlantedStructure:
    segment_len: int
    matrices: list                      # list of (N, N) arrays, cycled over segments
    tags: dict = field(default_factory=dict)  # {"dynamic"/"heterogeneous"/"partial": bool}

    def __post_init__(self):
        if self.segment_len <= 0:
            raise DataError("segment_len must be positive")
        if not self.matrices:
            raise DataError("need at least one correlation matrix")
        mats = []
        for k, c in enumerate(self.matrices):
            c = np.asarray(c, dtype=np.float64)
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise DataError(f"matrix {k} is not square: {c.shape}")
            if not np.allclose(c, c.T, atol=1e-12):
                raise DataError(f"matrix {k} is not symmetric")
            if not np.allclose(np.diag(c), 1.0, atol=1e-12):
                raise DataError(f"matrix {k} does not have a unit diagonal")
            lam_min = float(np.linalg.eigvalsh(c)[0])
            if lam_min < -1e-8:
                raise DataError(f"matrix {k} is not PSD (min eigenvalue {lam_min:.3e})")
            mats.append(c)
        if len({m.shape for m in mats}) != 1:
            raise DataError("matrices disagree on channel count")
        self.matrices = mats

    @property
    def n_channels(self) -> int:
        return self.matrices[0].shape[0]


def _block_matrix(n, cross_corr):
    """Two equicorrelated blocks (first ceil(n/2) channels vs the rest)."""
    b1 = (n + 1) // 2
    c = np.full((n, n), cross_corr, dtype=np.float64)
    c[:b1, :b1] = BLOCK_CORR
    c[b1:, b1:] = BLOCK_CORR
    np.fill_diagonal(c, 1.0)
    return c


def planted_regime(kind: str, n_channels: int = 8,
                   segment_len: int = 1024) -> PlantedStructure:
    """Preset structures realizing the three correlation regimes.

    partial        one matrix, two correlated blocks, zero across -> small |c|
    heterogeneous  one matrix, positive blocks, negative across
    dynamic        two alternating matrices whose cross-block sign flips
                   (each segment also exhibits mixed signs)
    """
    if n_channels < 3:
        raise DataError("regimes need at least 3 channels")
    if kind == "partial":
        mats = [_block_matrix(n_channels, 0.0)]
        tags = {"dynamic": False, "heterogeneous": False, "partial": True}
    elif kind == "heterogeneous":
        mats = [_block_matrix(n_channels, -CROSS_CORR)]
        tags = {"dynamic": False, "heterogeneous": True, "partial": False}
    elif kind == "dynamic":
        mats = [_block_matrix(n_channels, CROSS_CORR),
                _block_matrix(n_channels, -CROSS_CORR)]
        tags = {"dynamic": True, "heterogeneous": True, "partial": False}
    else:
        raise DataError(f"unknown regime {kind!r} "
                        "(expected dynamic, heterogeneous, or partial)")
    return PlantedStructure(segment_len=segment_len, matrices=mats, tags=tags)


def _psd_factor(c):
    """Factor F with F @ F.T = c, clipping tiny negative eigenvalues to 0."""
    lam, vec = np.linalg.eigh(c)
    return vec * np.sqrt(np.clip(lam, 0.0, None))


def _seasonal(t_index, season_amp=SEASON_AMP):
    return 1.0 + season_amp * np.sin(2.0 * np.pi * t_index / SEASON_PERIOD)


def signal_variance(season_amp: float = SEASON_AMP) -> float:
    """Stationary variance of the filtered unit-innovation signal."""
    return (1.0 + season_amp ** 2 / 2.0) / (1.0 - AR_COEFF ** 2)


def generate_synthetic(structure: PlantedStructure, t_total: int,
                       noise_std: float = 0.4, seed: int = 0,
                       season_amp: float = SEASON_AMP):
    """Sample a series whose per-segment Pearson matrices converge to the
    planted ones.  Returns (MultivariateSeries, PlantedStructure)."""
    n = structure.n_channels
    if t_total < 8 * n:
        raise DataError(f"T={t_total} too short to estimate {n}x{n} correlation "
                        f"(need at least {8 * n})")
    w = float(noise_std) ** 2
    v = signal_variance(season_amp)
    bound = w / (v + w)
    factors = []
    for k, c in enumerate(structure.matrices):
        lam_min = float(np.linalg.eigvalsh(c)[0])
        if lam_min < bound - 1e-12:
            raise DataError(
                f"noise_std={noise_std} cannot realize matrix {k}: needs "
                f"min eigenvalue >= {bound:.4f}, got {lam_min:.4f} "
                f"(lower noise_std or damp the correlations)")
        a = ((v + w) * c - w * np.eye(n)) / v
        factors.append(_psd_factor(a))

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, t_total))
    eta = rng.standard_normal((n, t_total)) * noise_std

    # innovations per segment, with the segment's own correlation factor
    innov = np.empty_like(z)
    n_segments = -(-t_total // structure.segment_len)
    for k in range(n_segments):
        lo = k * structure.segment_len
        hi = min(lo + structure.segment_len, t_total)
        innov[:, lo:hi] = factors[k % len(factors)] @ z[:, lo:hi]

    # AR(1) from the stationary distribution of the first segment
    s = np.empty_like(innov)
    s[:, 0] = innov[:, 0] / math.sqrt(1.0 - AR_COEFF ** 2)
    for t in range(1, t_total):
        s[:, t] = AR_COEFF * s[:, t - 1] + innov[:, t]

    values = s * _seasonal(np.arange(t_total), season_amp) + eta
    series = MultivariateSeries(values=values)
    return series, structure


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


def verify_regime(series: MultivariateSeries, segment_len: int,
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
        raise DataError(f"segment length {segment_len} too short for {n} channels "
                        f"(need at least {8 * n})")
    k = t_total // segment_len
    if k < 1:
        raise DataError("series shorter than one segment")
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


# ---------------------------------------------------------------------------
# CSV + truth sidecar


def save_csv(path, series: MultivariateSeries) -> None:
    """Header ``date,<channels>``; values printed with 17 significant digits
    so a reload is bit-identical."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(series.channel_names))
        stamps = series.timestamps or range(series.length)
        for t, stamp in zip(range(series.length), stamps):
            writer.writerow([stamp] + [format(v, ".17g") for v in series.values[:, t]])


def load_csv(path) -> MultivariateSeries:
    """Parse an ETT-style CSV: header row, a ``date`` column, and numeric
    channels in every other column.

    Rows with an empty, NaN or infinite cell are dropped and reported via
    ``dropped_rows`` (1-based data-row indices); where they sat between
    kept rows, ``gaps`` marks the break so that no window spans it.  Blank
    lines are skipped and break nothing.  A cell that is neither numeric
    nor empty is an error naming its row and column.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable CSV ({exc})") from exc
    if not lines:
        raise DataError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in lines[0]]
    if "date" not in header:
        raise DataError(f"{path}: no 'date' column in header {header}")
    date_idx = header.index("date")
    col_idx = [i for i in range(len(header)) if i != date_idx]
    channels = [header[i] for i in col_idx]
    if not channels:
        raise DataError(f"{path}: no channel columns")

    stamps, rows, dropped, gaps = [], [], [], []
    gap = False
    for row_no, row in enumerate(lines[1:], start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        parsed, drop = [], False
        for c, name in zip(col_idx, channels):
            cell = row[c].strip() if c < len(row) else ""
            if cell == "" or cell.lower() == "nan":
                drop = True
                continue
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: unparseable cell at row {row_no}, "
                    f"column {name!r}: {row[c]!r}") from None
            if not math.isfinite(parsed[-1]):
                drop = True
        if drop:
            dropped.append(row_no)
            gap = True
            continue
        if gap and rows:
            gaps.append(len(rows))
        gap = False
        stamps.append(row[date_idx] if date_idx < len(row) else "")
        rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no usable data rows")
    values = np.asarray(rows, dtype=np.float64).T
    return MultivariateSeries(values=values, channel_names=list(channels),
                              timestamps=stamps, dropped_rows=tuple(dropped),
                              gaps=tuple(gaps))


def save_truth(path, structure: PlantedStructure, noise_std: float = None,
               seed: int = None) -> None:
    doc = {
        "segment_len": structure.segment_len,
        "tags": structure.tags,
        "matrices": [m.tolist() for m in structure.matrices],
    }
    if noise_std is not None:
        doc["noise_std"] = noise_std
    if seed is not None:
        doc["seed"] = seed
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1)


def load_truth(path) -> PlantedStructure:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return PlantedStructure(segment_len=int(doc["segment_len"]),
                            matrices=[np.asarray(m) for m in doc["matrices"]],
                            tags=doc.get("tags", {}))


# ---------------------------------------------------------------------------
# windows


@dataclass
class SplitSpec:
    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2
    few_shot_frac: float = 1.0   # fraction of TRAIN windows kept (the last ones)
    stride: int = 1

    def __post_init__(self):
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise DataError(f"split fractions sum to {total}, expected 1")
        if min(self.train_frac, self.val_frac, self.test_frac) < 0:
            raise DataError("split fractions must be nonnegative")
        if not 0.0 < self.few_shot_frac <= 1.0:
            raise DataError("few_shot_frac must be in (0, 1]")
        if self.stride < 1:
            raise DataError("stride must be >= 1")


@dataclass
class WindowSet:
    x: np.ndarray        # (B, N, L)
    y: np.ndarray        # (B, N, F)
    starts: np.ndarray   # (B,) absolute start index of each lookback

    def __len__(self):
        return self.x.shape[0]


def _region_windows(values, lo, hi, lookback, horizon, stride, gaps):
    width = lookback + horizon
    starts = np.arange(lo, hi - width + 1, stride, dtype=np.int64)
    # keep a start only if the first gap after it comes at or past the
    # window's end (the series length stands in for "no gap")
    ends = np.append(np.asarray(gaps, dtype=np.int64), values.shape[1])
    starts = starts[ends[np.searchsorted(ends, starts, side="right")]
                    >= starts + width]
    if len(starts) == 0:
        return WindowSet(x=np.zeros((0, values.shape[0], lookback)),
                         y=np.zeros((0, values.shape[0], horizon)),
                         starts=starts)
    x = np.stack([values[:, s:s + lookback] for s in starts])
    y = np.stack([values[:, s + lookback:s + width] for s in starts])
    return WindowSet(x=x, y=y, starts=starts)


def make_windows(series: MultivariateSeries, spec: SplitSpec,
                 lookback: int, horizon: int):
    """Chronological train/val/test windows; no window crosses a split
    boundary or one of the series' ``gaps``.

    Few-shot keeps the chronologically LAST round(frac * count) train windows
    (at least one).  Returns (train, val, test) WindowSets.
    """
    t_total = series.length
    t1 = int(round(spec.train_frac * t_total))
    t2 = min(t1 + int(round(spec.val_frac * t_total)), t_total)
    regions = [(0, t1), (t1, t2), (t2, t_total)]
    names = ["train", "val", "test"]
    fracs = [spec.train_frac, spec.val_frac, spec.test_frac]
    out = []
    for name, frac, (lo, hi) in zip(names, fracs, regions):
        ws = _region_windows(series.values, lo, hi, lookback, horizon,
                             spec.stride, series.gaps)
        if frac > 0 and len(ws) == 0:
            raise DataError(
                f"{name} region [{lo}, {hi}) holds no gap-free window "
                f"(lookback {lookback} + horizon {horizon})")
        out.append(ws)
    train, val, test = out
    if spec.few_shot_frac < 1.0:
        keep = max(1, int(round(spec.few_shot_frac * len(train))))
        train = WindowSet(x=train.x[-keep:], y=train.y[-keep:],
                          starts=train.starts[-keep:])
    return train, val, test
