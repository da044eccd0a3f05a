"""Scenario engine: routes photon pairs through the planned network and
produces per-user, per-dispersion-path detection tag streams plus a
ground-truth log.

Routing model per photon: the demux/mux chain and splitter losses compose
into a survival probability; the subnet splitter assigns a uniform port
among the subnet's M users; each surviving photon takes the normal or
anomalous dispersion path with probability 1/2. The quoted splitter
insertion loss is the end-to-end figure through one port and therefore
already contains the ideal 1/M split; only the excess over 10*log10(M)
is charged on top of the uniform routing.

Pair generation is organized by joint routing outcome: for each resource,
the emitted Poisson pair stream is partitioned into independent Poisson
substreams per (signal destination, idler destination) outcome, including
loss. Each substream has its own derived seed, so any one user's tags do
not depend on which other users' streams were materialized, and a
resource's events can be regenerated in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._columns import CHUNK_ROWS, encode_rows
from .photonics import (DetectorConfig, DispersionConfig, SourceConfig,
                        db_to_transmittance, detector_response_traced,
                        wavelength_shift_nm_per_ghz, NORMAL, ANOMALOUS,
                        PS_PER_SECOND)
from .plan import NetworkPlan, ChannelPair

FIBER_DELAY_PS_PER_KM = 5_000_000  # 5 us of group delay per km
PATH_NAMES = ("normal", "anomalous")
PATH_SIGNS = (NORMAL, ANOMALOUS)
LOST = -1


class ScenarioConfigError(ValueError):
    """Inconsistent scenario configuration; message lists offending fields."""


@dataclass(frozen=True)
class LossBudget:
    """The dB loss chain seen by each photon.

    Every photon is charged the demux system, one mux pass, the splitter
    (excess over its ideal split), its dispersion module and its user's
    fiber. Inter-subnet resources pass one extra mux component; that pass
    is charged once per pair, on the signal photon.
    """

    awg_db: float = 5.5
    wdm_db: float = 0.5
    splitter_db: float = 10.4
    fiber_db_per_km: float = 0.2
    inter_extra_wdm_db: float = 0.5
    fiber_km: dict[int, float] = field(default_factory=lambda: {0: 1.0, 1: 2.0})

    def __post_init__(self):
        bad = [name for name in ("awg_db", "wdm_db", "splitter_db",
                                 "fiber_db_per_km", "inter_extra_wdm_db")
               if getattr(self, name) < 0]
        bad += [f"fiber_km[{u}]" for u, km in self.fiber_km.items() if km < 0]
        if bad:
            raise ScenarioConfigError(f"negative loss entries: {', '.join(bad)}")

    def user_fiber_km(self, user: int) -> float:
        return self.fiber_km.get(user, 0.0)


@dataclass(frozen=True)
class SystemConfig:
    """All physical-element parameters of one scenario."""

    source: SourceConfig = field(default_factory=SourceConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    dispersion: DispersionConfig = field(default_factory=DispersionConfig)
    losses: LossBudget = field(default_factory=LossBudget)


def splitter_excess_db(losses: LossBudget, subnet_size: int) -> float:
    """Loss beyond the ideal 1/M split of the subnet splitter."""
    return max(0.0, losses.splitter_db - 10.0 * math.log10(subnet_size))


def fiber_delay_ps(losses: LossBudget, user: int) -> int:
    return int(round(losses.user_fiber_km(user) * FIBER_DELAY_PS_PER_KM))


def route_loss_db(plan: NetworkPlan, sys_cfg: SystemConfig, resource_id: int,
                  role: str, user: int) -> float:
    """Total dB loss for one photon of a resource landing on one user."""
    losses = sys_cfg.losses
    total = (losses.awg_db + losses.wdm_db
             + splitter_excess_db(losses, plan.subnet_size)
             + sys_cfg.dispersion.insertion_loss_db
             + losses.fiber_db_per_km * losses.user_fiber_km(user))
    sig_subnet, idl_subnet = plan.resource_endpoints(resource_id)
    if sig_subnet != idl_subnet and role == "signal":
        total += losses.inter_extra_wdm_db
    return total


def arrival_probability(plan: NetworkPlan, sys_cfg: SystemConfig,
                        resource_id: int, role: str, user: int) -> float:
    """P(photon of this resource/role arrives at this user's receiver),
    before detector efficiency."""
    p_route = db_to_transmittance(
        route_loss_db(plan, sys_cfg, resource_id, role, user))
    return p_route / plan.subnet_size


def derive_stream_seed(master_seed: int, kind: str, *indices: int
                       ) -> np.random.SeedSequence:
    """Deterministic, collision-free per-stream seed derivation.

    kind selects an independent namespace ('pairs' for per-resource routing
    substreams, 'detector' for per-(user, path) detector randomness); the
    indices are embedded in the SeedSequence spawn key, so distinct inputs
    yield independent streams and generation order is immaterial.
    """
    kinds = {"pairs": 0, "detector": 1}
    if kind not in kinds:
        raise ValueError(f"unknown stream kind {kind!r}")
    key = (kinds[kind],) + tuple(int(i) + 1 for i in indices)
    if any(k < 0 for k in key):
        raise ValueError("stream indices must be >= -1")
    return np.random.SeedSequence(entropy=master_seed, spawn_key=key)


@dataclass
class TruthLog:
    """Ground-truth record of pairs with at least one receiver-side photon.

    Pairs lost on both sides before any selected receiver are tallied in
    emitted counts only; recording them individually is pointless and, at
    calibrated rates, would dwarf the useful data.
    """

    pair_id: np.ndarray
    resource_id: np.ndarray
    t_emit_ps: np.ndarray
    signal_user: np.ndarray
    idler_user: np.ndarray
    signal_detected: np.ndarray
    idler_detected: np.ndarray

    def __len__(self) -> int:
        return self.pair_id.size


TRUTH_CSV_HEADER = ["pair_id", "resource_id", "t_emit_ps", "signal_user",
                    "idler_user", "signal_detected", "idler_detected"]


def write_truth_csv(truth: TruthLog, path) -> None:
    """Truth log CSV, in the dialect csv.writer writes.

    A header line of the TRUTH_CSV_HEADER names, then one line per pair
    with those columns in order, e.g. `7,3,10505365740,2,-1,1,0`: integers
    in decimal, t_emit_ps as whole picoseconds rounded half to even (the
    rounding the detector applies to tags; `2.5` is written `2`), a LOST
    user as -1 and the detected flags as 0/1. Every line, the header too,
    ends in CRLF. The log itself keeps the float64 times.

    Rows are encoded by _columns.encode_rows and written CHUNK_ROWS
    (16384) at a time, so besides the log itself the writer holds one
    chunk's columns, units and text, 2.4 MB at the peak (tracemalloc),
    however long the log is.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(TRUTH_CSV_HEADER).encode() + b"\r\n")
        for start in range(0, len(truth), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            fh.write(encode_rows(
                [truth.pair_id[rows], truth.resource_id[rows],
                 # rounded a chunk at a time: no full-size copy of the log
                 np.rint(truth.t_emit_ps[rows]).astype(np.int64),
                 truth.signal_user[rows], truth.idler_user[rows],
                 truth.signal_detected[rows], truth.idler_detected[rows]],
                b"\r\n"))


@dataclass
class ScenarioResult:
    duration_ps: int
    seed: int
    streams: dict[tuple[int, int], np.ndarray]
    emitted_pairs: dict[int, int]
    truth: TruthLog | None
    tag_pair_rows: dict[tuple[int, int], np.ndarray] | None = None

    def singles_counts(self) -> dict[tuple[int, int], int]:
        return {key: int(tags.size) for key, tags in self.streams.items()}

    def user_stream(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """Merged (times, path_labels) for one user, sorted by time."""
        t0 = self.streams.get((user, 0), np.empty(0, dtype=np.int64))
        t1 = self.streams.get((user, 1), np.empty(0, dtype=np.int64))
        merged = np.concatenate([t0, t1])
        labels = np.concatenate([np.zeros(t0.size, dtype=np.uint8),
                                 np.ones(t1.size, dtype=np.uint8)])
        order = np.argsort(merged, kind="stable")
        return merged[order], labels[order]


def _category_events(sys_cfg: SystemConfig, plan: NetworkPlan,
                     pair: ChannelPair, duration_ps: int, master_seed: int,
                     materialize: set[int]):
    """Yield per-outcome event blocks for one resource.

    Yields (signal_user, idler_user, n_emitted, block) where block is None
    for outcomes that were only counted; otherwise block holds the drawn
    (times, detuning, path_s, path_i, corr_jitter) arrays. The RNG draw
    sequence within an outcome is fixed, so which outcomes are
    materialized never changes another outcome's events. path_i and
    corr_jitter, the last draws, are made only when the idler user is
    materialized and are None otherwise; path_s is drawn either way,
    because path_i follows it in the sequence.
    """
    rid = pair.resource_id
    sig_subnet, idl_subnet = plan.resource_endpoints(rid)
    sig_users = list(plan.subnet_users(sig_subnet))
    idl_users = list(plan.subnet_users(idl_subnet))
    p_sig = {u: arrival_probability(plan, sys_cfg, rid, "signal", u)
             for u in sig_users}
    p_idl = {u: arrival_probability(plan, sys_cfg, rid, "idler", u)
             for u in idl_users}
    p_sig[LOST] = 1.0 - sum(p_sig.values())
    p_idl[LOST] = 1.0 - sum(p_idl.values())

    rate = sys_cfg.source.pair_rate_hz
    duration_s = duration_ps / PS_PER_SECOND
    bw = sys_cfg.source.bandwidth_ghz
    corr_sigma = sys_cfg.source.correlation_jitter_ps

    for u in sig_users + [LOST]:
        for v in idl_users + [LOST]:
            rng = np.random.default_rng(
                derive_stream_seed(master_seed, "pairs", rid, u, v))
            n = int(rng.poisson(rate * p_sig[u] * p_idl[v] * duration_s))
            wanted = (u in materialize) or (v in materialize)
            if not wanted or n == 0:
                yield u, v, n, None
                continue
            times = np.sort(rng.uniform(0.0, duration_ps, size=n))
            detuning = rng.uniform(-bw / 2.0, bw / 2.0, size=n)
            path_s = rng.integers(0, 2, size=n)
            path_i = corr = None
            if v in materialize:
                path_i = rng.integers(0, 2, size=n)
                corr = (rng.normal(0.0, corr_sigma, size=n) if corr_sigma > 0
                        else np.zeros(n))
            yield u, v, n, (times, detuning, path_s, path_i, corr)


def _photon_arrival_times(block, role: str, user: int, pair: ChannelPair,
                          sys_cfg: SystemConfig) -> np.ndarray:
    """Receiver arrival times for one side of an event block.

    arrival = (t + fiber delay) + sign * D * (dlambda/dnu * detuning), with
    sign = PATH_SIGNS[path], the idler's detuning negated and the
    correlation jitter added to the idler's emission time only. The path
    sign is applied as one gather from (sign_0 * D, sign_1 * D), with no
    per-path mask: a sign of +-1 times D is exactly +-D, so every element
    gets the bits that shifting its path's slice by sign * D * dlambda
    gives (the per-path oracle, tests/helpers.ref_dispersion_time_shift).
    The idler's negation is moved onto the scalar dlambda/dnu, which is
    also exact (x * -y == -x * y in IEEE arithmetic).
    """
    times, detuning, path_s, path_i, corr = block
    delay = float(fiber_delay_ps(sys_cfg.losses, user))
    if role == "signal":
        channel, paths = pair.signal, path_s
        dlam_per_ghz = wavelength_shift_nm_per_ghz(channel)
        arrivals = times + delay
    else:
        channel, paths = pair.idler, path_i
        dlam_per_ghz = -wavelength_shift_nm_per_ghz(channel)
        arrivals = times + corr
        arrivals += delay
    mag = sys_cfg.dispersion.magnitude_ps_per_nm
    sign_mag = np.array([PATH_SIGNS[0] * mag, PATH_SIGNS[1] * mag], dtype=float)
    shift = np.multiply(detuning, dlam_per_ghz)
    shift *= sign_mag[paths]
    arrivals += shift
    return arrivals


def run_scenario(plan: NetworkPlan, sys_cfg: SystemConfig, duration_s: float,
                 seed: int, selected_users=None,
                 collect_truth: bool = True) -> ScenarioResult:
    """Simulate the full chain and return tag streams plus ground truth.

    selected_users restricts which users' receivers are materialized (all
    by default). A user's tag stream is byte-identical whichever other
    users are selected alongside it. Deterministic in (plan, configs,
    duration, seed).

    Each (user, path) stream's arrivals are sorted once before the
    detector. A truth run sorts them with a stable argsort, because the
    truth rows must follow the same permutation. Without truth only the
    values are sorted: equal floats cannot be told apart, so the sorted
    array, and with it every tag, is the same whichever permutation
    produced it.
    """
    if duration_s < 0:
        raise ScenarioConfigError("run.duration_s: must be >= 0")
    duration_ps = int(round(duration_s * PS_PER_SECOND))
    if selected_users is None:
        selected = list(plan.users())
    else:
        selected = sorted(set(int(u) for u in selected_users))
        for u in selected:
            plan.subnet_of(u)  # raises on unknown user
    sel_set = set(selected)

    buffers: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {
        (u, p): [] for u in selected for p in (0, 1)}
    emitted: dict[int, int] = {}

    t_emit_blocks: list[np.ndarray] = []
    rid_blocks: list[np.ndarray] = []
    su_blocks: list[np.ndarray] = []
    iu_blocks: list[np.ndarray] = []
    n_rows = 0

    for pair in sorted(plan.resources(), key=lambda p: p.resource_id):
        rid = pair.resource_id
        emitted[rid] = 0
        for u, v, n, block in _category_events(sys_cfg, plan, pair,
                                               duration_ps, seed, sel_set):
            emitted[rid] += n
            if block is None:
                continue
            times, detuning, path_s, path_i, corr = block
            if collect_truth:
                rows = np.arange(n_rows, n_rows + n, dtype=np.int64)
                n_rows += n
                t_emit_blocks.append(times)
                rid_blocks.append(np.full(n, rid, dtype=np.int32))
                su_blocks.append(np.full(n, u, dtype=np.int32))
                iu_blocks.append(np.full(n, v, dtype=np.int32))
            else:
                rows = None
            for role_bit, (role, dest, paths) in enumerate(
                    (("signal", u, path_s), ("idler", v, path_i))):
                if dest not in sel_set:
                    continue
                arr = _photon_arrival_times(block, role, dest, pair, sys_cfg)
                packed = rows * 2 + role_bit if rows is not None else None
                anomalous = paths == 1
                for path, mask in ((0, ~anomalous), (1, anomalous)):
                    if not np.any(mask):
                        continue
                    buffers[(dest, path)].append(
                        (arr[mask], packed[mask] if packed is not None else None))

    if collect_truth:
        truth = TruthLog(
            pair_id=np.arange(n_rows, dtype=np.int64),
            resource_id=(np.concatenate(rid_blocks) if n_rows
                         else np.empty(0, dtype=np.int32)),
            t_emit_ps=(np.concatenate(t_emit_blocks) if n_rows
                       else np.empty(0, dtype=float)),
            signal_user=(np.concatenate(su_blocks) if n_rows
                         else np.empty(0, dtype=np.int32)),
            idler_user=(np.concatenate(iu_blocks) if n_rows
                        else np.empty(0, dtype=np.int32)),
            signal_detected=np.zeros(n_rows, dtype=bool),
            idler_detected=np.zeros(n_rows, dtype=bool),
        )
    else:
        truth = None

    streams: dict[tuple[int, int], np.ndarray] = {}
    tag_pair_rows: dict[tuple[int, int], np.ndarray] | None = (
        {} if collect_truth else None)
    for (user, path) in sorted(buffers):
        chunks = buffers.pop((user, path))
        if chunks:
            times = np.concatenate([c[0] for c in chunks])
            if collect_truth:
                packed = np.concatenate([c[1] for c in chunks])
                order = np.argsort(times, kind="stable")
                times, packed = times[order], packed[order]
                del order
            else:
                packed = None
                times.sort()
        else:
            times = np.empty(0, dtype=float)
            packed = np.empty(0, dtype=np.int64) if collect_truth else None
        del chunks
        rng = np.random.default_rng(
            derive_stream_seed(seed, "detector", user, path))
        tags, origin = detector_response_traced(times, sys_cfg.detector,
                                                duration_s, rng)
        streams[(user, path)] = tags
        if truth is not None:
            tag_rows = np.full(tags.size, -1, dtype=np.int64)
            photon = origin >= 0
            if origin.size:
                hit = packed[origin[photon]]
                tag_rows[photon] = hit // 2
                sig_rows = hit[hit % 2 == 0] // 2
                idl_rows = hit[hit % 2 == 1] // 2
                truth.signal_detected[sig_rows] = True
                truth.idler_detected[idl_rows] = True
            tag_pair_rows[(user, path)] = tag_rows

    return ScenarioResult(
        duration_ps=duration_ps,
        seed=seed,
        streams=streams,
        emitted_pairs=emitted,
        truth=truth,
        tag_pair_rows=tag_pair_rows,
    )


def write_tag_stream(path, user: int, path_index: int, duration_ps: int,
                     seed: int, tags: np.ndarray) -> None:
    """Tag dump: a header line `user,path,duration_ps,seed` (the path by
    name, e.g. `3,normal,250000000000,42`), then one decimal integer
    timestamp per line. Every line ends in LF.

    Timestamps are encoded by _columns.encode_rows and written CHUNK_ROWS
    (16384) at a time, so besides the stream itself the writer holds one
    chunk's units and text, 0.8 MB at the peak (tracemalloc), however long
    the stream is.
    """
    tags = np.asarray(tags, dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write(f"{user},{PATH_NAMES[path_index]},{duration_ps},{seed}\n"
                 .encode())
        for start in range(0, tags.size, CHUNK_ROWS):
            fh.write(encode_rows([tags[start:start + CHUNK_ROWS]], b"\n"))
