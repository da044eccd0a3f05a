"""Symmetric dispersive-optics QKD post-processing.

Each user splits photons between a normal and an anomalous dispersion path.
Pairs measured on opposite-sign paths see equal dispersion shifts (the
frequency anti-correlation cancels the opposite dispersion signs), so their
arrival-time correlation survives and they carry key material; same-sign
pairs are broadened by the full biphoton bandwidth and serve as a security
monitor via their timing spread.

Key pairs are identified with the narrow coincidence window; monitor pairs
must be matched with a window wide enough for the dispersion-broadened
envelope, which the narrow window geometrically cannot contain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .analysis import LinkWindow, match_coincidences

DISCARD_REASONS = ("basis_mismatch", "guard_band", "frame_mismatch",
                   "multi_event_frame")


@dataclass(frozen=True)
class FrameConfig:
    """Time-bin encoding geometry: frames of d bins, d a power of two.

    Three binary subdivision levels (d = 8) generate three bits per kept
    coincidence. The guard band discards tags too close to a bin boundary
    to be assigned reliably under detector jitter.
    """

    frame_length_ps: int = 1024
    bins_per_frame: int = 8
    guard_band_ps: int = 16

    def __post_init__(self):
        d = self.bins_per_frame
        if d < 2 or d & (d - 1):
            raise ValueError("bins_per_frame must be a power of two >= 2")
        if self.frame_length_ps % d:
            raise ValueError("frame_length_ps must be an exact multiple of"
                             " bins_per_frame")
        if not 0 <= self.guard_band_ps < self.bin_width_ps / 2:
            raise ValueError("guard_band_ps must lie in [0, bin_width/2)")

    @property
    def bin_width_ps(self) -> int:
        return self.frame_length_ps // self.bins_per_frame

    @property
    def bits_per_symbol(self) -> float:
        return math.log2(self.bins_per_frame)


def bin_encode(tag_ps, frames: FrameConfig):
    """(frame_index, symbol, guard_flag) for a tag or array of tags.

    symbol is the tag's bin within its frame; guard_flag marks tags whose
    in-bin position is within guard_band of a bin boundary (boundaries at
    multiples of bin_width, including frame edges).
    """
    tags = np.asarray(tag_ps, dtype=np.int64)
    frame = tags // frames.frame_length_ps
    in_frame = tags - frame * frames.frame_length_ps
    symbol = in_frame // frames.bin_width_ps
    pos = in_frame - symbol * frames.bin_width_ps
    g = frames.guard_band_ps
    guard = (pos < g) | (pos > frames.bin_width_ps - g)
    if np.isscalar(tag_ps) or np.ndim(tag_ps) == 0:
        return int(frame), int(symbol), bool(guard)
    return frame, symbol, guard


def basis_sift(path_a: np.ndarray, path_b: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Split matched pairs by dispersion-path parity.

    Returns (key_mask, monitor_mask): pairs where exactly one side took the
    normal path carry key material (shifts cancel); same-sign pairs go to
    the monitor set.
    """
    path_a = np.asarray(path_a)
    path_b = np.asarray(path_b)
    key = path_a != path_b
    return key, ~key


@dataclass
class SiftedKeyMaterial:
    """Per-link sifted symbol pairs plus discard accounting."""

    frame_index: np.ndarray
    symbol_a: np.ndarray
    symbol_b: np.ndarray
    bins_per_frame: int
    discards: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.frame_index.size)


def sift_frames(times_a: np.ndarray, times_b: np.ndarray,
                frames: FrameConfig) -> SiftedKeyMaterial:
    """Bin sifting of matched key-basis pairs (times already clock-aligned).

    Discards, in order: pairs with either tag guard-flagged; pairs whose
    tags fall in different frames; then every pair in a frame holding more
    than one surviving pair (announcing multi-event frames costs nothing
    and removes ambiguity).
    """
    times_a = np.asarray(times_a, dtype=np.int64)
    times_b = np.asarray(times_b, dtype=np.int64)
    fa, sa, ga = bin_encode(times_a, frames)
    fb, sb, gb = bin_encode(times_b, frames)

    discards = {reason: 0 for reason in DISCARD_REASONS}
    keep = ~(ga | gb)
    discards["guard_band"] = int(np.count_nonzero(~keep))

    same_frame = fa == fb
    discards["frame_mismatch"] = int(np.count_nonzero(keep & ~same_frame))
    keep &= same_frame

    # After the frame-mismatch filter each pair has one shared frame index,
    # so one uniqueness pass covers both sides.
    order = np.argsort(fa[keep], kind="stable")
    fa_kept = fa[keep][order]
    sa_kept = sa[keep][order]
    sb_kept = sb[keep][order]
    unique = np.ones(fa_kept.size, dtype=bool)
    if fa_kept.size > 1:
        dup_with_prev = fa_kept[1:] == fa_kept[:-1]
        unique[1:] &= ~dup_with_prev
        unique[:-1] &= ~dup_with_prev
    discards["multi_event_frame"] = int(np.count_nonzero(~unique))

    return SiftedKeyMaterial(frame_index=fa_kept[unique],
                             symbol_a=sa_kept[unique],
                             symbol_b=sb_kept[unique],
                             bins_per_frame=frames.bins_per_frame,
                             discards=discards)


def estimate_qber(material: SiftedKeyMaterial) -> float:
    """Fraction of sifted symbol pairs that disagree."""
    if len(material) == 0:
        raise ValueError("no sifted symbol pairs")
    return float(np.mean(material.symbol_a != material.symbol_b))


def mutual_information(material: SiftedKeyMaterial) -> float:
    """Plug-in estimate of I(A;B) in bits from the empirical joint
    distribution over the d x d symbol grid."""
    n = len(material)
    if n == 0:
        raise ValueError("no sifted symbol pairs")
    d = material.bins_per_frame
    if n < d * d:
        warnings.warn(f"only {n} symbol pairs for a {d}x{d} joint histogram;"
                      " the plug-in estimate will be biased", stacklevel=2)
    joint = np.zeros((d, d), dtype=np.int64)
    np.add.at(joint, (material.symbol_a, material.symbol_b), 1)
    p = joint / n
    pa = p.sum(axis=1, keepdims=True)
    pb = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / (pa @ pb)[mask])))


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


@dataclass(frozen=True)
class MonitorSpread:
    """Robust timing spread of same-sign-path pairs.

    spread_ps is the interquartile range of the pair delays; for the
    dispersion-broadened (uniform) envelope this is half the full width,
    i.e. D * (lambda^2/c) * bandwidth at full configured dispersion.
    """

    spread_ps: float
    n_pairs: int
    expected_ps: float
    inconclusive: bool
    anomalous: bool


def monitor_broadening(deltas_ps: np.ndarray, expected_ps: float,
                       min_pairs: int = 8, anomaly_factor: float = 1.25
                       ) -> MonitorSpread:
    """IQR of same-sign pair delays, flagged against the configured
    expectation."""
    deltas = np.asarray(deltas_ps, dtype=float)
    if deltas.size < 2:
        return MonitorSpread(spread_ps=float("nan"), n_pairs=int(deltas.size),
                             expected_ps=expected_ps, inconclusive=True,
                             anomalous=False)
    spread = timing_spread_iqr_ps(deltas)
    inconclusive = deltas.size < min_pairs
    anomalous = (not inconclusive and expected_ps > 0
                 and spread > anomaly_factor * expected_ps)
    return MonitorSpread(spread_ps=spread, n_pairs=int(deltas.size),
                         expected_ps=expected_ps, inconclusive=inconclusive,
                         anomalous=anomalous)


def timing_spread_iqr_ps(deltas_ps: np.ndarray) -> float:
    """IQR of a delay sample; the spread statistic used on both bases."""
    deltas = np.asarray(deltas_ps, dtype=float)
    if deltas.size < 2:
        return float("nan")
    q75, q25 = np.percentile(deltas, [75.0, 25.0])
    return float(q75 - q25)


@dataclass(frozen=True)
class KeyRateReport:
    """Per-link secure-rate summary."""

    sifted_rate_sym_s: float
    qber: float
    mutual_info_bits: float
    secret_fraction_bits: float
    secure_rate_bps: float
    monitor: MonitorSpread
    key_spread_ps: float
    counts: dict[str, int]
    discards: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "sifted_rate_sym_s": self.sifted_rate_sym_s,
            "qber": self.qber,
            "mutual_information_bits": self.mutual_info_bits,
            "secret_fraction_bits": self.secret_fraction_bits,
            "secure_rate_bps": self.secure_rate_bps,
            "monitor_spread_ps": self.monitor.spread_ps,
            "monitor_expected_ps": self.monitor.expected_ps,
            "monitor_pairs": self.monitor.n_pairs,
            "monitor_inconclusive": self.monitor.inconclusive,
            "monitor_anomalous": self.monitor.anomalous,
            "key_spread_ps": self.key_spread_ps,
            "counts": dict(self.counts),
            "discards": dict(self.discards),
        }


def secure_key_rate(material: SiftedKeyMaterial, sifted_rate_sym_s: float,
                    beta: float, monitor: MonitorSpread,
                    key_spread_ps: float = float("nan"),
                    counts: dict[str, int] | None = None) -> KeyRateReport:
    """Secret fraction and secure rate from sifted material.

    secret_fraction = max(0, beta*I(A;B) - [h2(Q) + Q*log2(d-1)]) bits per
    sifted symbol: reconciliation at efficiency beta against the mutual
    information, with the error-dependent term bounding the leaked
    information for a d-ary symbol channel. Error correction and privacy
    amplification are accounted for in the rate, not executed bitwise.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    q = estimate_qber(material)
    i_ab = mutual_information(material)
    d = material.bins_per_frame
    leak = binary_entropy(q) + q * math.log2(d - 1)
    secret = max(0.0, beta * i_ab - leak)
    return KeyRateReport(
        sifted_rate_sym_s=sifted_rate_sym_s,
        qber=q,
        mutual_info_bits=i_ab,
        secret_fraction_bits=secret,
        secure_rate_bps=sifted_rate_sym_s * secret,
        monitor=monitor,
        key_spread_ps=key_spread_ps,
        counts=dict(counts or {}),
        discards=dict(material.discards),
    )


@dataclass(frozen=True)
class QkdConfig:
    """Protocol-side knobs of the per-link pipeline."""

    frames: FrameConfig = field(default_factory=FrameConfig)
    window_ps: int = 128
    monitor_window_ps: int = 4096
    beta: float = 0.9

    def __post_init__(self):
        if self.window_ps <= 0 or self.monitor_window_ps <= 0:
            raise ValueError("coincidence windows must be positive")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")


def monitor_deltas(link: LinkWindow, monitor_window_ps: int) -> np.ndarray:
    """Residual delays of the same-path monitor pairs of one link.

    Each path's substreams are matched with the wide monitor window, on
    the link's candidate tags; path 0 pairs come first, each path in time
    order of a.
    """
    if link.reach_ps < monitor_window_ps // 2:
        raise ValueError("link window reach is narrower than the monitor"
                         " half-window")
    deltas = []
    for path in (0, 1):
        mon = match_coincidences(link.times_a[link.paths_a == path],
                                 link.times_b[link.paths_b == path],
                                 monitor_window_ps, offset_ps=link.offset_ps)
        deltas.append(mon.deltas_ps())
    return np.concatenate(deltas)


def analyze_link(link: LinkWindow, delay_a_ps: int, delay_b_ps: int,
                 qkd: QkdConfig, duration_s: float,
                 monitor_expected_ps: float = 0.0) -> KeyRateReport:
    """Full post-processing of one link from its LinkWindow.

    Key pairs are the link's narrow-window matches (which must use
    qkd.window_ps) after basis sifting; monitor pairs come from
    wide-window matching of the same-path substreams. Frame clocks are
    aligned by subtracting each user's configured propagation delay, whose
    difference must be the link's offset.
    """
    matches = link.matches
    if matches.window_ps != qkd.window_ps:
        raise ValueError("link window was matched with another coincidence"
                         " window than qkd.window_ps")
    if link.offset_ps != delay_b_ps - delay_a_ps:
        raise ValueError("link window offset differs from delay_b - delay_a")
    key_mask, mon_mask = basis_sift(link.paths_a[matches.index_a],
                                    link.paths_b[matches.index_b])
    key_a = matches.times_a[key_mask] - delay_a_ps
    key_b = matches.times_b[key_mask] - delay_b_ps
    key_spread = timing_spread_iqr_ps(matches.deltas_ps()[key_mask])

    material = sift_frames(key_a, key_b, qkd.frames)
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    material.discards["basis_mismatch"] = int(np.count_nonzero(mon_mask))
    sifted_rate = len(material) / duration_s

    monitor = monitor_broadening(monitor_deltas(link, qkd.monitor_window_ps),
                                 expected_ps=monitor_expected_ps)

    counts = {
        "matched_pairs": len(matches),
        "key_pairs": int(np.count_nonzero(key_mask)),
        "monitor_pairs": monitor.n_pairs,
        "sifted_pairs": len(material),
    }
    if len(material) == 0:
        # nothing survived sifting: a zero-rate link, not an error
        return KeyRateReport(sifted_rate_sym_s=0.0, qber=float("nan"),
                             mutual_info_bits=0.0, secret_fraction_bits=0.0,
                             secure_rate_bps=0.0, monitor=monitor,
                             key_spread_ps=key_spread, counts=counts,
                             discards=dict(material.discards))
    return secure_key_rate(material, sifted_rate, qkd.beta, monitor,
                           key_spread_ps=key_spread, counts=counts)
