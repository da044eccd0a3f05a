"""Scenario engine: routes photon pairs through the planned network and
produces one detection tag stream per user, each tag's path in its low
bit, plus a ground-truth log.

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

run_scenario makes two passes over the outcomes. The first draws only
each outcome's Poisson count, and keeps the generators of the outcomes
that reach a selected user; the counts give every selected user's exact
number of arrivals and the truth log's length. The second draws those
outcomes' events and writes each user's arrivals straight into one
preallocated float64 buffer: normal-path photons fill it from the front
in outcome order, anomalous-path photons from the back in reverse, so
the two regions meet exactly and each, read in its own direction, is in
outcome order. A truth run keeps the photons' packed truth rows in a
matching int64 buffer; the log's resource and users are one run per
outcome, taken from pass 1. Each draw and each step of the arrival
transform writes into one scratch set per share of users, sized to the
share's largest outcome block.

Pass 1 seeds all of a run's outcomes at once: _seed_states runs
SeedSequence's pool hash and generate_state on the uint32 words of every
spawn key in NumPy, and each outcome's generator is a PCG64 given its
four state words (_generator), the default_rng of its derive_stream_seed
with the same state. The detectors are seeded the same way. Pass 1 of
the 1215 outcomes of the 40-user plan took 23 ms with a SeedSequence
and a default_rng per outcome and takes 5 ms so (seed 42, median of 9,
2-CPU host). numpy.random is still imported by the first run, not with
the package.

The second pass is split by user across processes (fork_map), the
users weighted by their pass-1 arrival totals. This process runs the
first share; each other share runs in a worker forked before it starts,
which inherits every pass-1 generator where pass 1 left it, so an
outcome that reaches two shares is drawn in both with identical events.
The process that runs a share picks the outcomes that reach its users,
allocates their buffers, fills them and detects each user (_fill_share,
_detect_user): each region is sorted once before its detector, in
place, or through a stable argsort when a truth run needs the
permutation. Right after a user's second path the two paths' tags are
merged into the user's one stream, a sorted int64 array of packed tags
2 * t + path (_kernels), and the user's buffers and per-path arrays are
freed. A worker's users' streams, packed tag rows, arrival counts and
singles (each path's tags, counted before the merge) are its result.
This process alone fills the truth log's emission-time column: its own
share's outcomes as it draws them and, after every fork, every other
outcome's times, an outcome's first event draw, from its own copy of
that outcome's generator (_emission_times). With every share in, the
packed tag rows mark the truth log's detected flags in one scatter and
are then halved in place into truth rows.

fork_map is the only code that splits a stage: pass 2 here, and the
analysis's candidate sweep and per-link stage (analysis.link_matrix,
report.run_bundle). It cuts a stage's weighted items into one share per
CPU by one rule (_shares: largest first, each to the lightest share),
forks a worker per share but the first, runs the first here, and
returns the results in item order. A worker sends its result to this
process as one pickle through a pipe, its only output (_fork); its
warnings are issued again here. A worker that fails, or whose pickle
ends short, makes fork_map raise, naming it; on any exit every worker
still running is killed and every worker is reaped, so none outlives
the call.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import signal
import sys
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._kernels import pack_paths
from .photonics import (DetectorConfig, DispersionConfig, SourceConfig,
                        db_to_transmittance, detector_response_traced,
                        wavelength_shift_nm_per_ghz, NORMAL, ANOMALOUS,
                        PS_PER_SECOND)
from .plan import NetworkPlan, ChannelPair, ParameterError

FIBER_DELAY_PS_PER_KM = 5_000_000  # 5 us of group delay per km
PATH_NAMES = ("normal", "anomalous")
PATH_SIGNS = (NORMAL, ANOMALOUS)
LOST = -1
# Emission and arrival times are float64 picoseconds, exact as integers
# only up to 2**53 (about 9007 s); packed tags stay far inside int64.
MAX_DURATION_PS = 2**53


class ScenarioConfigError(ParameterError):
    """A scenario argument out of range; `name` is the argument."""


def duration_ps_of(duration_s: float) -> int:
    """duration_s in whole picoseconds. Raises ScenarioConfigError naming
    duration_s unless it is finite, >= 0 and at most MAX_DURATION_PS."""
    ScenarioConfigError.check("duration_s", duration_s, 0)
    duration_ps = int(round(duration_s * PS_PER_SECOND))
    if duration_ps > MAX_DURATION_PS:
        raise ScenarioConfigError(
            "duration_s", f"at most {MAX_DURATION_PS / PS_PER_SECOND:.0f} s;"
            " float64 picosecond times are exact only up to 2**53 ps")
    return duration_ps


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
        for name in ("awg_db", "wdm_db", "splitter_db", "fiber_db_per_km",
                     "inter_extra_wdm_db"):
            ScenarioConfigError.check(name, getattr(self, name), 0)
        for user, km in self.fiber_km.items():
            if not 0 <= km < math.inf:
                raise ScenarioConfigError("fiber_km", f"user {user}: must be"
                                          f" finite and >= 0, got {km!r}")

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
    pair = plan.resource_by_id(resource_id)
    if pair.signal_subnet != pair.idler_subnet and role == "signal":
        total += losses.inter_extra_wdm_db
    return total


def arrival_probability(plan: NetworkPlan, sys_cfg: SystemConfig,
                        resource_id: int, role: str, user: int) -> float:
    """P(photon of this resource/role arrives at this user's receiver),
    before detector efficiency."""
    p_route = db_to_transmittance(
        route_loss_db(plan, sys_cfg, resource_id, role, user))
    return p_route / plan.subnet_size


STREAM_KINDS = {"pairs": 0, "detector": 1}


def derive_stream_seed(master_seed: int, kind: str, *indices: int
                       ) -> np.random.SeedSequence:
    """Deterministic, collision-free per-stream seed derivation.

    kind selects an independent namespace ('pairs' for per-resource routing
    substreams, 'detector' for per-(user, path) detector randomness); the
    indices are embedded in the SeedSequence spawn key, so distinct inputs
    yield independent streams and generation order is immaterial.
    run_scenario seeds its generators through _seed_states, which gives
    the same generators for a whole run's keys at once.
    """
    if kind not in STREAM_KINDS:
        raise ValueError(f"unknown stream kind {kind!r}")
    key = (STREAM_KINDS[kind],) + tuple(int(i) + 1 for i in indices)
    if any(k < 0 for k in key):
        raise ValueError("stream indices must be >= -1")
    return np.random.SeedSequence(entropy=master_seed, spawn_key=key)


# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4


def _seed_states(master_seed: int, kind: str, keys) -> np.ndarray:
    """Row k is derive_stream_seed(master_seed, kind, *keys[k])
    .generate_state(4, np.uint64), the four words PCG64 is seeded with,
    for all the keys (rows of indices) at once.

    This is SeedSequence's documented algorithm on uint32 words: the
    entropy (the seed's words, zero-padded to the pool size) and then the
    spawn key are hashed into a pool of four words, from which
    generate_state hashes eight. Each step works on an int (the seed's
    words are the same for every key) or on a column of all the keys'
    words, where uint32 arithmetic wraps as the C code's does. On a
    2-CPU host a SeedSequence and its default_rng took 27 us a key; the
    1215 keys of the 40-user plan hash here in 0.6 ms, and _generator
    then takes about 5 us a key.
    """
    seed = operator.index(master_seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    keys = np.asarray(keys, dtype=np.int64)
    keys = keys.reshape(len(keys), -1) + 1 if keys.size else keys.reshape(0, 0)
    if np.any(keys < 0):
        raise ValueError("stream indices must be >= -1")
    if np.any(keys > _MASK32):
        raise ValueError("stream indices must be below 2**32 - 1")
    entropy = [seed >> s & _MASK32
               for s in range(0, max(1, seed.bit_length()), 32)]
    entropy += [0] * (_POOL_WORDS - len(entropy))
    entropy += [STREAM_KINDS[kind], *keys.T.astype(np.uint32)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((len(keys), 2 * _POOL_WORDS), dtype="<u4")
    const = _INIT_B
    for i in range(state.shape[1]):
        value = pool[i % _POOL_WORDS] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state[:, i] = value ^ value >> 16
    return state.view("<u8").astype(np.uint64)


class _SeedState:
    """A seed for PCG64 that gives it one _seed_states row: PCG64 takes
    any numpy.random.bit_generator.ISeedSequence and reads only
    generate_state(4, np.uint64) of it."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError("a _SeedState holds 4 uint64 words only")
        return self.state


def _generator(state: np.ndarray) -> np.random.Generator:
    """np.random.default_rng of the SeedSequence whose generate_state(4,
    np.uint64) is state, with the same generator state. numpy.random is
    imported here, on the first run, not with the package."""
    np.random.bit_generator.ISeedSequence.register(_SeedState)
    return np.random.Generator(np.random.PCG64(_SeedState(state)))


@dataclass
class TruthLog:
    """Ground-truth record of pairs with at least one receiver-side photon.

    Pairs lost on both sides before any selected receiver are tallied in
    emitted counts only; recording them individually is pointless and, at
    calibrated rates, would dwarf the useful data.

    A pair's id is its row. t_emit_ps and the detected flags hold one
    item per row. The other four fields hold one item per run: the rows
    of one joint routing outcome, consecutive and in pass-1 order. Run k
    starts at row first_row[k] (strictly increasing from 0) and ends
    where run k + 1 starts; its pairs share resource_id[k],
    signal_user[k] and idler_user[k].
    """

    t_emit_ps: np.ndarray
    signal_detected: np.ndarray
    idler_detected: np.ndarray
    first_row: np.ndarray
    resource_id: np.ndarray
    signal_user: np.ndarray
    idler_user: np.ndarray

    def __len__(self) -> int:
        return self.t_emit_ps.size


@dataclass
class ScenarioResult:
    """streams[user] is the user's stream: one sorted int64 array of its
    tags, each packed as 2 * t + path (0 normal, 1 anomalous; _kernels'
    tag_times and tag_paths unpack it), so on equal times path 0's tag
    comes first. A truth run's tag_pair_rows[user] holds each tag's
    truth-log row (-1 for a dark count), aligned with the user's stream.
    arrival_counts[(user, path)] is the number of photons that reached
    that detector, before any detector loss, and singles_counts[(user,
    path)] the tags it gave, both counted by the detector's process."""

    duration_ps: int
    seed: int
    streams: dict[int, np.ndarray]
    emitted_pairs: dict[int, int]
    arrival_counts: dict[tuple[int, int], int]
    singles_counts: dict[tuple[int, int], int]
    truth: TruthLog | None
    tag_pair_rows: dict[int, np.ndarray] | None = None

    def user_stream(self, user: int) -> np.ndarray:
        """One user's stream."""
        return self.streams[user]


def _outcome_counts(sys_cfg: SystemConfig, plan: NetworkPlan,
                    duration_ps: int, master_seed: int):
    """Yield (pair, signal_user, idler_user, n_emitted, rng) for every
    joint routing outcome of every resource, LOST included, in resource
    order.

    n_emitted is the outcome's Poisson count, the first draw of its own
    derive_stream_seed("pairs", ...) generator; rng is that generator,
    positioned for the outcome's event draws (_draw_events). All the
    outcomes' seeds are hashed in one _seed_states call; each generator is
    made only as its outcome comes.
    """
    outcomes = []  # (pair, signal user, idler user, Poisson mean)
    duration_s = duration_ps / PS_PER_SECOND
    for pair in plan.resources:
        rid = pair.resource_id
        sig_users = list(plan.subnet_users(pair.signal_subnet))
        idl_users = list(plan.subnet_users(pair.idler_subnet))
        p_sig = {u: arrival_probability(plan, sys_cfg, rid, "signal", u)
                 for u in sig_users}
        p_idl = {u: arrival_probability(plan, sys_cfg, rid, "idler", u)
                 for u in idl_users}
        p_sig[LOST] = 1.0 - sum(p_sig.values())
        p_idl[LOST] = 1.0 - sum(p_idl.values())
        rate = sys_cfg.source.pair_rate_hz
        outcomes.extend((pair, u, v, rate * p_sig[u] * p_idl[v] * duration_s)
                        for u in sig_users + [LOST] for v in idl_users + [LOST])
    states = _seed_states(master_seed, "pairs",
                          [(o[0].resource_id, o[1], o[2]) for o in outcomes])
    for (pair, u, v, mean), state in zip(outcomes, states):
        rng = _generator(state)
        yield pair, u, v, int(rng.poisson(mean)), rng


class _Scratch:
    """One pass-2 share's temporaries, sized to its largest outcome block.

    Each block works in the first n items of every array, so pass 2
    allocates only the two path draws of a block (Generator.integers has
    no out=), and the pages of the rest are faulted in once per share
    instead of once per block. A truth run adds the packed rows: steps
    holds 0, 2, 4, ..., and each block's packed rows are one add to it.
    """

    def __init__(self, size: int, truth: bool):
        self.times = np.empty(size)
        self.detuning = np.empty(size)
        self.corr = np.empty(size)
        self.arrivals = np.empty(size)
        self.shift = np.empty(size)
        self.anomalous = np.empty(size, dtype=bool)
        self.normal = np.empty(size, dtype=bool)
        if truth:
            self.steps = np.arange(0, 2 * size, 2, dtype=np.int64)
            self.packed = np.empty(size, dtype=np.int64)


def _uniform(rng: np.random.Generator, low: float, high: float,
             out: np.ndarray) -> np.ndarray:
    """rng.uniform(low, high, out.size) drawn into out: the same
    float steps, low + (high - low) * u, and the same generator state
    after."""
    rng.random(out=out)
    out *= high - low
    out += low
    return out


def _emission_times(rng: np.random.Generator, duration_ps: int,
                    out: np.ndarray) -> np.ndarray:
    """An outcome's emission times, the first draw after its count:
    out.size uniform times in [0, duration_ps) drawn into out, sorted."""
    _uniform(rng, 0.0, duration_ps, out).sort()
    return out


def _draw_events(rng: np.random.Generator, n: int, source: SourceConfig,
                 duration_ps: int, draw_idler: bool, scratch: _Scratch):
    """One outcome's n events, drawn after its count in a fixed sequence
    into the first n items of scratch: (times, detuning, path_s, path_i,
    corr), times sorted (_emission_times).

    The times and the detuning are rng.uniform draws (_uniform) and the
    correlation jitter is rng.normal(0.0, sigma) taken apart: a standard
    normal, times sigma, plus 0.0, as normal computes it. path_i and
    corr, the last draws, are made only when draw_idler holds (the idler
    user is materialized) and are None otherwise; path_s is drawn either
    way, because path_i follows it in the sequence. So which users are
    materialized never changes another outcome's events.
    """
    times = _emission_times(rng, duration_ps, scratch.times[:n])
    half_bw = source.bandwidth_ghz / 2.0
    detuning = _uniform(rng, -half_bw, half_bw, scratch.detuning[:n])
    path_s = rng.integers(0, 2, size=n)
    path_i = corr = None
    if draw_idler:
        path_i = rng.integers(0, 2, size=n)
        sigma = source.correlation_jitter_ps
        corr = scratch.corr[:n]
        if sigma > 0:
            rng.standard_normal(out=corr)
            corr *= sigma
            corr += 0.0
        else:
            corr.fill(0.0)
    return times, detuning, path_s, path_i, corr


def _photon_arrival_times(block, role: str, user: int, pair: ChannelPair,
                          sys_cfg: SystemConfig, scratch: _Scratch
                          ) -> np.ndarray:
    """Receiver arrival times for one side of an event block, written into
    the first n items of scratch.arrivals.

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
    arrivals, shift = scratch.arrivals[:times.size], scratch.shift[:times.size]
    delay = float(fiber_delay_ps(sys_cfg.losses, user))
    if role == "signal":
        channel, paths = pair.signal, path_s
        dlam_per_ghz = wavelength_shift_nm_per_ghz(channel)
    else:
        channel, paths = pair.idler, path_i
        dlam_per_ghz = -wavelength_shift_nm_per_ghz(channel)
    mag = sys_cfg.dispersion.magnitude_ps_per_nm
    sign_mag = np.array([PATH_SIGNS[0] * mag, PATH_SIGNS[1] * mag], dtype=float)
    np.multiply(detuning, dlam_per_ghz, out=shift)
    # arrivals holds the gathered signs until the times overwrite it;
    # mode="clip" (paths are 0 or 1) lets take write out= unbuffered
    shift *= np.take(sign_mag, paths, out=arrivals, mode="clip")
    if role == "signal":
        np.add(times, delay, out=arrivals)
    else:
        np.add(times, corr, out=arrivals)
        arrivals += delay
    arrivals += shift
    return arrivals


def _place(buf: np.ndarray, front: int, back: int, values: np.ndarray,
           anomalous: np.ndarray, normal: np.ndarray) -> tuple[int, int]:
    """Write one block's normal-path values at buf[front:] in order and its
    anomalous-path values just below buf[back], reversed; return the new
    (front, back). np.compress writes straight into the buffer (boolean
    indexing with a copy took 3.5x as long on 24k random path bits)."""
    n_anomalous = int(np.count_nonzero(anomalous))
    n_normal = values.size - n_anomalous
    np.compress(normal, values, out=buf[front:front + n_normal])
    np.compress(anomalous, values, out=buf[back - n_anomalous:back][::-1])
    return front + n_normal, back - n_anomalous


def _workers() -> int:
    """Processes that share a stage (_shares): one per CPU this process
    may run on, the parent included, or only the parent where os.fork is
    missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(weights) -> list[list[int]]:
    """Cut the items range(len(weights)) into at most _workers() nonempty
    shares of near-equal total weight, each share's items in ascending
    order: largest item first, each to the lightest share so far (of
    equal ones, the one with fewer items, then the first)."""
    shares = [[] for _ in range(min(_workers(), len(weights)))]
    load = [0] * len(shares)
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        k = min(range(len(shares)), key=lambda k: (load[k], len(shares[k])))
        shares[k].append(i)
        load[k] += weights[i]
    return [sorted(share) for share in shares]


def _fill_share(users: list[int], outcomes: list, arrivals: dict[int, int],
                sys_cfg: SystemConfig, duration_ps: int, truth: bool,
                t_emit: np.ndarray | None):
    """Pass 2 for one share's users: draw outcomes, the outcomes that
    reach one of them, and write their arrivals (and a truth run's packed
    rows) into new buffers of arrivals[user] items. Given the truth log's
    emission-time column t_emit, write each outcome's emission times into
    its rows. Return each user's arrivals, packed rows (None without
    truth) and normal-path count."""
    mine = set(users)
    scratch = _Scratch(max((o[3] for o in outcomes), default=0), truth)
    times_buf = {u: np.empty(arrivals[u]) for u in users}
    rows_buf = ({u: np.empty(arrivals[u], dtype=np.int64) for u in users}
                if truth else None)
    fronts = dict.fromkeys(users, 0)
    backs = dict(arrivals)
    for pair, u, v, n, rng, row in outcomes:
        block = _draw_events(rng, n, sys_cfg.source, duration_ps, v in mine,
                             scratch)
        if t_emit is not None:
            t_emit[row:row + n] = block[0]
        for role_bit, (role, dest, paths) in enumerate(
                (("signal", u, block[2]), ("idler", v, block[3]))):
            if dest not in mine:
                continue
            arr = _photon_arrival_times(block, role, dest, pair, sys_cfg,
                                        scratch)
            anomalous = np.equal(paths, 1, out=scratch.anomalous[:n])
            normal = np.logical_not(anomalous, out=scratch.normal[:n])
            f, b = fronts[dest], backs[dest]
            fronts[dest], backs[dest] = _place(times_buf[dest], f, b, arr,
                                               anomalous, normal)
            if truth:
                packed = np.add(scratch.steps[:n], 2 * row + role_bit,
                                out=scratch.packed[:n])
                _place(rows_buf[dest], f, b, packed, anomalous, normal)
    return times_buf, rows_buf, fronts


def _fork(work) -> tuple[int, int]:
    """Run work() in a forked worker; return its pid and the read end of
    a pipe on which it sends a 0 byte and the protocol-5 pickle of what
    work returns, or a 1 byte and its traceback if it fails.

    The worker leaves through os._exit whatever happens, so it never
    returns into the caller's stack or runs exit handlers and flushes
    that belong to the parent. Python 3.12+ warns on a fork of a process
    with other threads, such as NumPy's BLAS pool; under an "error"
    filter that warning would be raised in the parent after the fork and
    orphan the worker, so it is ignored here: the worker calls no BLAS
    routine. Protocol 5 writes a contiguous array's items in band from
    its own buffer, with no copy, and the parent's pickle.load reads
    them into one new writeable allocation per array; the worker blocks
    until the parent reads them. The pickle comes only from this
    process's own child, through a private pipe.
    """
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            result = work()
            with open(write_fd, "wb", closefd=False) as pipe:
                pipe.write(b"\0")
                pickle.dump(result, pipe, protocol=5)
            code = 0
        except BaseException:
            os.write(write_fd, b"\1" + traceback.format_exc().encode()[-4096:])
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _recording(work, share):
    """work(share) and the warnings it issued, each as (category, text,
    filename, lineno): all of them recorded, none shown or raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = work(share)
    return result, [(w.category, str(w.message), w.filename, w.lineno)
                    for w in caught]


def _warn_again(caught) -> None:
    """Issue warnings recorded elsewhere (_recording) in this process, as
    warnings.warn would have from the module whose file each names: with
    that module's name and registry, through this process's filters."""
    if not caught:
        return
    by_file = {m.__file__: vars(m) for m in list(sys.modules.values())
               if getattr(m, "__file__", None)}  # an entry may be None
    for category, text, filename, lineno in caught:
        where = by_file.get(filename)
        warnings.warn_explicit(
            text, category, filename, lineno,
            module=where["__name__"] if where else None,
            registry=where.setdefault("__warningregistry__", {})
            if where else None)


def fork_map(stage: str, work, weights, name) -> list:
    """One result per item of range(len(weights)), in item order.

    The items are cut into shares of near-equal weight (_shares), and
    work(share) returns the results of a share's items, a list in the
    share's (ascending) order. Each share but the first runs in a worker
    of its own (_fork), and the first in this process once every worker
    is forked; then the workers' results are loaded in order. A worker
    records the warnings its work issues and sends them with its result;
    they are issued again here after the first share's own, in share
    order (_warn_again). A worker that fails, or whose pickle ends short,
    makes fork_map raise RuntimeError naming the stage, the worker and
    its share: its size and its first item, name(item). On any exit
    every worker still running is killed and every worker is reaped, so
    none outlives the call.
    """
    shares = _shares(weights)
    workers = []  # (index, pid, pipe) of the workers not yet reaped
    caught = []
    try:
        for k in range(1, len(shares)):
            workers.append((k, *_fork(
                lambda share=shares[k]: _recording(work, share))))
        done = [work(share) for share in shares[:1]]
        while workers:
            k, pid, fd = workers[0]
            with open(fd, "rb", closefd=False) as pipe:
                try:
                    got = pickle.load(pipe) if pipe.read(1) == b"\0" else None
                except (EOFError, pickle.UnpicklingError):
                    got = None
                text = pipe.read() if got is None else b""
            _, status = os.waitpid(pid, 0)
            del workers[0]
            os.close(fd)
            code = os.waitstatus_to_exitcode(status)
            if got is None or code:
                reason = (f"exited with status {code}" if code
                          else "sent a short payload")
                raise RuntimeError(
                    f"{stage} worker {k} of {len(shares) - 1}"
                    f" ({len(shares[k])} of {len(weights)}, first"
                    f" {name(shares[k][0])}, pid {pid}) {reason}:\n"
                    + text.decode(errors="replace"))
            done.append(got[0])
            caught.extend(got[1])
    finally:
        for _, pid, fd in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    _warn_again(caught)
    results = [None] * len(weights)
    for share, got in zip(shares, done):
        for i, result in zip(share, got, strict=True):
            results[i] = result
    return results


def _detect_user(user: int, times_buf: dict[int, np.ndarray],
                 rows_buf: dict[int, np.ndarray] | None, n_normal: int,
                 seed_states: np.ndarray, sys_cfg: SystemConfig,
                 duration_s: float):
    """One user's stream, in a truth run (rows_buf given) its packed tag
    rows (else None), and its tags per path, from its filled buffers,
    which are popped and freed on the way.

    Each path goes through its own detector, seeded per (user, path):
    seed_states[path] is the _seed_states row of its "detector" key.
    The two paths' tags are then packed into one new array (pack_paths)
    and sorted by a stable sort, which merges the two sorted runs in one
    pass; a truth run argsorts, and its tag rows follow the same
    permutation: each is the packed row of the photon that made the tag,
    or -1 for a dark count. One path never holds two tags in one
    picosecond (the detector's 1 ps dead-time floor), so every packed
    value is unique, and path 0's tag comes first on equal times.

    A truth run reads the anomalous region reversed, which restores
    outcome order, and sorts each region with a stable argsort, because
    the truth rows must follow the same permutation. Without truth the
    region is sorted in place by value: equal floats cannot be told
    apart, so the sorted array, and with it every tag, is the same
    whichever order the region was filled in.
    """
    user_times = times_buf.pop(user)
    user_rows = rows_buf.pop(user) if rows_buf is not None else None
    truth = user_rows is not None
    path_tags, path_rows = [], []
    for path, region in ((0, slice(None, n_normal)), (1, slice(n_normal, None))):
        times = user_times[region]
        if not truth:
            times.sort()
        else:
            packed = user_rows[region]
            if path == 1:  # filled from the back
                times, packed = times[::-1], packed[::-1]
            order = np.argsort(times, kind="stable")
            times, packed = times[order], packed[order]
            del order
        rng = _generator(seed_states[path])
        tags, origin = detector_response_traced(times, sys_cfg.detector,
                                                duration_s, rng)
        del times
        path_tags.append(tags)
        if truth:
            path_rows.append(np.full(origin.size, -1, dtype=np.int64))
            photon = origin >= 0
            path_rows[-1][photon] = packed[origin[photon]]
            del packed, photon
        del tags, origin  # path_tags keeps the only reference
    del user_times, user_rows  # unmaps the user's buffers
    singles = tuple(tags.size for tags in path_tags)
    stream = pack_paths(*path_tags)
    del path_tags  # frees both paths' tags before the sort
    if not truth:
        stream.sort(kind="stable")
        return stream, None, singles
    order = stream.argsort(kind="stable")
    stream = stream[order]  # frees the unsorted stream before the rows
    return stream, np.concatenate(path_rows)[order], singles


def run_scenario(plan: NetworkPlan, sys_cfg: SystemConfig, duration_s: float,
                 seed: int, selected_users=None,
                 collect_truth: bool = True) -> ScenarioResult:
    """Simulate the full chain and return tag streams plus ground truth.

    selected_users restricts which users' receivers are materialized (all
    by default). A user's tag stream is byte-identical whichever other
    users are selected alongside it. Deterministic in (plan, configs,
    duration, seed), and independent of how many workers share pass 2.
    A duration that duration_ps_of refuses raises ScenarioConfigError
    naming duration_s before anything is drawn.

    The two passes, the per-user buffer layout and pass 2's shares of
    users and their workers are described in the module docstring. A
    truth run's packed row is 2 * truth row, plus 1 for the idler photon.
    """
    duration_ps = duration_ps_of(duration_s)
    if selected_users is None:
        selected = list(plan.users())
    else:
        selected = sorted(set(int(u) for u in selected_users))
        for u in selected:
            plan.subnet_of(u)  # raises on unknown user
    sel_set = set(selected)

    emitted = {pair.resource_id: 0 for pair in plan.resources}
    outcomes = []  # (pair, signal user, idler user, n, rng, first row)
    arrivals = dict.fromkeys(selected, 0)
    n_rows = 0
    for pair, u, v, n, rng in _outcome_counts(sys_cfg, plan, duration_ps,
                                              seed):
        emitted[pair.resource_id] += n
        if n and (u in sel_set or v in sel_set):
            outcomes.append((pair, u, v, n, rng, n_rows))
            n_rows += n
            for dest in (u, v):
                if dest in sel_set:
                    arrivals[dest] += n
    detector_states = dict(zip(selected, _seed_states(
        seed, "detector", [(u, path) for u in selected for path in (0, 1)]
    ).reshape(-1, 2, 4)))

    t_emit = None
    if collect_truth:
        t_emit = np.empty(n_rows)
        runs = dict(
            first_row=np.array([o[5] for o in outcomes], dtype=np.int64),
            resource_id=np.array([o[0].resource_id for o in outcomes],
                                 dtype=np.int32),
            signal_user=np.array([o[1] for o in outcomes], dtype=np.int32),
            idler_user=np.array([o[2] for o in outcomes], dtype=np.int32))
    parent = os.getpid()

    def run_share(share):
        """Pass 2 for the users selected[i] of share: each one's (stream,
        packed tag rows or None, (normal, anomalous) singles, (normal,
        anomalous) arrivals). Only this process writes the emission-time
        column, and it draws the times of the outcomes only workers draw
        too."""
        users = [selected[i] for i in share]
        mine = set(users)
        here = os.getpid() == parent
        # the outcomes that reach one of the users
        drawn = [o for o in outcomes if o[1] in mine or o[2] in mine]
        theirs = ([o for o in outcomes
                   if o[1] not in mine and o[2] not in mine]
                  if here and collect_truth else [])
        outcomes.clear()  # drawn and theirs hold the generators
        times_buf, rows_buf, n_normal = _fill_share(
            users, drawn, arrivals, sys_cfg, duration_ps, collect_truth,
            t_emit if here else None)
        del drawn  # and with it this process's generators
        got = [(*_detect_user(user, times_buf, rows_buf, n_normal[user],
                              detector_states[user], sys_cfg, duration_s),
                (n_normal[user], arrivals[user] - n_normal[user]))
               for user in users]
        for _, _, _, n, rng, row in theirs:
            # drawn only after the forks: this process's generator is
            # still where pass 1 left it, as the worker's was
            _emission_times(rng, duration_ps, t_emit[row:row + n])
        return got

    results = dict(zip(selected, fork_map(
        "pass-2", run_share, [arrivals[u] for u in selected],
        lambda i: f"user {selected[i]}")))

    truth = None
    if collect_truth:
        detected = np.zeros((n_rows, 2), dtype=bool)
        for _, rows, _, _ in results.values():
            detected.reshape(-1)[rows[rows >= 0]] = True
            rows //= 2  # packed rows to truth rows; -1 stays -1
        truth = TruthLog(t_emit_ps=t_emit, signal_detected=detected[:, 0],
                         idler_detected=detected[:, 1], **runs)

    return ScenarioResult(
        duration_ps=duration_ps,
        seed=seed,
        streams={u: results[u][0] for u in selected},
        emitted_pairs=emitted,
        arrival_counts={(u, path): results[u][3][path] for u in selected
                        for path in (0, 1)},
        singles_counts={(u, path): results[u][2][path] for u in selected
                        for path in (0, 1)},
        truth=truth,
        tag_pair_rows=({u: results[u][1] for u in selected}
                       if collect_truth else None),
    )
