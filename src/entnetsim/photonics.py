"""Phenomenological component models: pair source, losses, dispersion, detectors.

The source, detector and dispersion configurations, the dB and
wavelength conversions, and the detector response, a pure function of
(config, rng state). Streams are NumPy arrays with times in picoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .plan import ItuChannel, ParameterError, SPEED_OF_LIGHT_NM_THZ

PS_PER_SECOND = 1e12


class ContractViolation(ValueError):
    """An input violated a documented precondition (e.g. unsorted stream)."""


@dataclass(frozen=True)
class SourceConfig:
    """Broadband pair source, one correlated channel pair at a time.

    pair_rate_hz is a calibration default: the generated pair rate per
    channel pair is not a published figure; it is chosen so downstream
    coincidence and key-rate figures land in their reference ranges.
    correlation_jitter_ps is the intrinsic biphoton correlation width.
    """

    pair_rate_hz: float = 2.0e6
    bandwidth_ghz: float = 100.0
    correlation_jitter_ps: float = 2.0

    def __post_init__(self):
        ParameterError.check("pair_rate_hz", self.pair_rate_hz, 0, low_open=True)
        ParameterError.check("bandwidth_ghz", self.bandwidth_ghz, 0, low_open=True)
        ParameterError.check("correlation_jitter_ps", self.correlation_jitter_ps, 0)


@dataclass(frozen=True)
class DetectorConfig:
    """Single-photon detector: efficiency, dark counts, jitter, dead time."""

    efficiency: float = 0.70
    dark_rate_hz: float = 100.0
    jitter_ps: float = 30.0
    dead_time_ps: int = 50_000

    def __post_init__(self):
        ParameterError.check("efficiency", self.efficiency, 0, 1)
        for name in ("dark_rate_hz", "jitter_ps", "dead_time_ps"):
            ParameterError.check(name, getattr(self, name), 0)


NORMAL = +1
ANOMALOUS = -1


@dataclass(frozen=True)
class DispersionConfig:
    """One dispersion module; sign +1 selects normal, -1 anomalous dispersion."""

    magnitude_ps_per_nm: float = 1980.0
    insertion_loss_db: float = 3.0

    def __post_init__(self):
        ParameterError.check("magnitude_ps_per_nm", self.magnitude_ps_per_nm, 0)
        ParameterError.check("insertion_loss_db", self.insertion_loss_db, 0)


def db_to_transmittance(loss_db: float) -> float:
    """Power transmittance of a loss expressed in dB."""
    if loss_db < 0:
        raise ValueError("loss_db must be >= 0")
    return 10.0 ** (-loss_db / 10.0)


def wavelength_shift_nm_per_ghz(channel: ItuChannel) -> float:
    """d(lambda)/d(nu) at the channel center: -lambda^2/c, in nm per GHz."""
    lam_nm = channel.wavelength_nm()
    return -(lam_nm * lam_nm) / (SPEED_OF_LIGHT_NM_THZ * 1000.0)


def detector_response_traced(arrivals_ps: np.ndarray, cfg: DetectorConfig,
                             duration_s: float, rng: np.random.Generator
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Detected int64 timestamps for a sorted stream of photon arrivals,
    with per-tag provenance.

    Applies, in order: efficiency thinning, Gaussian timing jitter,
    rounding to integer picoseconds, dark-count injection (independent
    Poisson process), a stable sort, clipping to [0, duration), and
    dead-time pruning with a floor of 1 ps, which also merges tags that
    share a picosecond into the first of them.

    Returns (tags, origin) where origin[k] is the index into arrivals_ps
    that produced tags[k], or -1 for a dark count.
    """
    arrivals_ps = np.asarray(arrivals_ps, dtype=float)
    if arrivals_ps.ndim != 1:
        raise ContractViolation("arrivals must be a 1-d array")
    if arrivals_ps.size > 1 and (arrivals_ps[1:] < arrivals_ps[:-1]).any():
        raise ContractViolation("arrivals must be sorted ascending")
    duration_ps = int(round(duration_s * PS_PER_SECOND))

    kept = np.flatnonzero(rng.random(arrivals_ps.size) < cfg.efficiency)
    times = arrivals_ps[kept]
    if cfg.jitter_ps > 0:
        times += rng.normal(0.0, cfg.jitter_ps, size=times.size)
    tags = np.rint(times, out=times).astype(np.int64)
    del times
    origin = kept.astype(np.int64, copy=False)

    n_dark = int(rng.poisson(cfg.dark_rate_hz * duration_s)) if duration_s > 0 else 0
    if n_dark:
        dark = rng.integers(0, max(duration_ps, 1), size=n_dark, dtype=np.int64)
        tags = np.concatenate([tags, dark])
        origin = np.concatenate([origin, np.full(n_dark, -1, dtype=np.int64)])

    order = np.argsort(tags, kind="stable")
    lo, hi = np.searchsorted(tags, (0, duration_ps), sorter=order)
    order = order[lo:hi]
    tags, origin = tags[order], origin[order]

    keep_idx = _kernels.dead_time_prune(tags, max(cfg.dead_time_ps, 1))
    return tags[keep_idx], origin[keep_idx]
