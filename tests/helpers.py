"""Independent oracles for the test suite.

Everything here is deliberately written without reference to the package's
kernel implementations: brute-force enumeration for matching, histogramming
and the candidate search, a literal sequential scan for dead-time pruning,
and a pair-by-pair reference engine, reference_engine, which draws each
resource's emission itself (a Poisson count, sorted uniform times, uniform
in-band detunings) and routes every photon individually through
route_pair. lossless_variant is a scenario with every loss and hardware
imperfection removed, for conservation checks. ref_mutual_information is
the joint histogram's old np.add.at form. ref_dispersion_time_shift,
ref_photon_arrival_times and resource_arrivals rebuild the engine's
arrivals the way it computed them before its arrival transform dropped
the per-path masks. truth_rows expands a truth log's runs into one
value per row. The ref_write_* functions are the bundle's per-row
writers, kept as byte oracles for the column-wise writers in
entnetsim.report. read_histograms_csv parses histograms.csv back into
histograms.
"""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np

from entnetsim import sim
from entnetsim._kernels import tag_paths, tag_times
from entnetsim.analysis import CorrelationHistogram
from entnetsim.plan import NetworkPlan
from entnetsim.photonics import (PS_PER_SECOND, db_to_transmittance,
                                 detector_response_traced,
                                 wavelength_shift_nm_per_ghz)
from entnetsim.report import HISTOGRAMS_CSV_HEADER, TRUTH_CSV_HEADER
from entnetsim.sim import (LOST, PATH_NAMES, PATH_SIGNS, LossBudget,
                           SystemConfig, arrival_probability,
                           derive_stream_seed, fiber_delay_ps, route_loss_db)


def brute_dead_time(tags: np.ndarray, dead_ps: int) -> np.ndarray:
    """Literal sequential dead-time scan; returns kept indices."""
    kept = []
    last = None
    for i, t in enumerate(tags):
        if last is None or t - last >= dead_ps:
            kept.append(i)
            last = t
    return np.asarray(kept, dtype=np.int64)


def brute_greedy_match(a, b, offset: int, half_window: int):
    """O(na*nb) earliest-first one-to-one matching."""
    used = np.zeros(len(b), dtype=bool)
    ia, ib = [], []
    for i, t in enumerate(a):
        target = t + offset
        for j in range(len(b)):
            if used[j]:
                continue
            if abs(int(b[j]) - int(target)) <= half_window:
                ia.append(i)
                ib.append(j)
                used[j] = True
                break
            if b[j] > target + half_window:
                break
    return np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)


def brute_greedy_match_vec(a, b, offset: int, half_window: int):
    """Same matching rule, row-at-a-time over the full partner stream.

    Still brute force (no index structure over b), but fast enough for the
    10^4-tag acceptance cases.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    used = np.zeros(b.size, dtype=bool)
    ia, ib = [], []
    for i in range(a.size):
        in_window = np.abs(b - (a[i] + offset)) <= half_window
        free = np.flatnonzero(in_window & ~used)
        if free.size:
            ia.append(i)
            ib.append(free[0])
            used[free[0]] = True
    return np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)


def brute_histogram(a, b, offset: int, bin_width: int, n_bins: int) -> np.ndarray:
    """All-pairs delay histogram by direct enumeration."""
    span = n_bins * bin_width
    lo = -(span // 2)
    counts = np.zeros(n_bins, dtype=np.int64)
    for t in a:
        for s in b:
            d = int(s) - int(t) - offset
            if lo <= d < lo + span:
                counts[(d - lo) // bin_width] += 1
    return counts


def brute_histogram_vec(a, b, offset: int, bin_width: int, n_bins: int,
                        chunk: int = 256) -> np.ndarray:
    """All-pairs histogram via dense difference blocks (still O(na*nb))."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    span = n_bins * bin_width
    lo = -(span // 2)
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, a.size, chunk):
        block = b[None, :] - a[start:start + chunk, None] - offset
        d = block.ravel()
        d = d[(d >= lo) & (d < lo + span)]
        if d.size:
            counts += np.bincount((d - lo) // bin_width, minlength=n_bins)
    return counts


def brute_candidates(a, b, offset: int, reach: int):
    """Positions of the tags of a and of b with a partner in the other
    stream at |t_b - t_a - offset| <= reach, by direct enumeration."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    near = np.abs(b[None, :] - a[:, None] - offset) <= reach
    return np.flatnonzero(near.any(axis=1)), np.flatnonzero(near.any(axis=0))


def ref_mutual_information(material) -> float:
    """doqkd.mutual_information with the joint histogram built by
    np.add.at, as the package built it before it used np.bincount."""
    n = len(material)
    d = material.bins_per_frame
    joint = np.zeros((d, d), dtype=np.int64)
    np.add.at(joint, (material.symbol_a, material.symbol_b), 1)
    p = joint / n
    pa = p.sum(axis=1, keepdims=True)
    pb = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / (pa @ pb)[mask])))


def lossless_variant(sys_cfg: SystemConfig) -> SystemConfig:
    """The same scenario with every loss and every hardware imperfection
    removed; useful for conservation checks.

    The source's intrinsic pair correlation width is kept: it is pair
    physics, not hardware noise, and without it the two photons of a pair
    landing on one detector would merge into a single picosecond tag.
    """
    return SystemConfig(
        source=sys_cfg.source,
        detector=replace(sys_cfg.detector, efficiency=1.0, dark_rate_hz=0.0,
                         jitter_ps=0.0, dead_time_ps=0),
        dispersion=replace(sys_cfg.dispersion, insertion_loss_db=0.0),
        losses=LossBudget(awg_db=0.0, wdm_db=0.0, splitter_db=0.0,
                          fiber_db_per_km=0.0, inter_extra_wdm_db=0.0,
                          fiber_km={}),
    )


def route_pair(resource_id: int, plan: NetworkPlan, sys_cfg: SystemConfig,
               rng: np.random.Generator) -> tuple[int, int, int, int]:
    """Routing fate of a single emitted pair, photon by photon:
    (signal_user, idler_user, signal_path, idler_path), a user LOST when
    its photon does not survive the route."""
    pair = plan.resource_by_id(resource_id)
    users = []
    for role, subnet in (("signal", pair.signal_subnet),
                         ("idler", pair.idler_subnet)):
        user = plan.subnet_users(subnet)[int(rng.integers(0, plan.subnet_size))]
        survives = rng.random() < db_to_transmittance(
            route_loss_db(plan, sys_cfg, resource_id, role, user))
        users.append(user if survives else LOST)
    return users[0], users[1], int(rng.integers(0, 2)), int(rng.integers(0, 2))


def reference_engine(plan: NetworkPlan, sys_cfg: SystemConfig,
                     duration_s: float, seed: int):
    """Pair-by-pair scenario simulation: emit, route, disperse, detect.

    Each resource emits a homogeneous Poisson pair stream with uniform
    in-band detuning, and every pair is routed individually through
    route_pair, to cross-validate the production engine's
    outcome-partitioned generation at small scale. Returns
    {(user, path): tags}.
    """
    rng = np.random.default_rng(seed)
    src = sys_cfg.source
    duration_ps = int(round(duration_s * PS_PER_SECOND))
    arrivals: dict[tuple[int, int], list[float]] = {}
    for pair in plan.resources:
        n = (int(rng.poisson(src.pair_rate_hz * duration_s))
             if duration_s > 0 else 0)
        times = np.sort(rng.uniform(0.0, duration_ps, size=n))
        half_band = src.bandwidth_ghz / 2.0
        detunings = rng.uniform(-half_band, half_band, size=n)
        for t, det in zip(times, detunings):
            signal_user, idler_user, signal_path, idler_path = route_pair(
                pair.resource_id, plan, sys_cfg, rng)
            corr = (rng.normal(0.0, src.correlation_jitter_ps)
                    if src.correlation_jitter_ps > 0 else 0.0)
            for role, user, path in (("signal", signal_user, signal_path),
                                     ("idler", idler_user, idler_path)):
                if user == LOST:
                    continue
                channel = pair.signal if role == "signal" else pair.idler
                detuning = det if role == "signal" else -det
                when = t + (corr if role == "idler" else 0.0)
                when += fiber_delay_ps(sys_cfg.losses, user)
                when += ref_dispersion_time_shift(
                    detuning, channel, PATH_SIGNS[path], sys_cfg.dispersion)
                arrivals.setdefault((user, path), []).append(when)
    streams = {}
    for key in sorted(arrivals):
        arr = np.sort(np.asarray(arrivals[key]))
        streams[key] = detector_response_traced(arr, sys_cfg.detector,
                                                duration_s, rng)[0]
    return streams


def ref_dispersion_time_shift(detuning_ghz, channel, sign: int, disp):
    """Arrival-time shift (ps) of photons detuned from their channel center:
    sign * D * d(lambda), with d(lambda) = -(lambda^2/c) * detuning at the
    channel center (about -0.008 nm/GHz near 1545 nm)."""
    dlam = wavelength_shift_nm_per_ghz(channel) * np.asarray(detuning_ghz, dtype=float)
    return sign * disp.magnitude_ps_per_nm * dlam


def ref_photon_arrival_times(block, role: str, user: int, pair,
                             sys_cfg: SystemConfig) -> np.ndarray:
    """Per-path masked arrival transform: one dispersion shift per path slice."""
    times, detuning, path_s, path_i, corr = block
    if role == "signal":
        channel, det, paths = pair.signal, detuning, path_s
        t = times
    else:
        channel, det, paths = pair.idler, -detuning, path_i
        t = times + corr
    delay = fiber_delay_ps(sys_cfg.losses, user)
    arrivals = t + float(delay)  # new array; in-place path shifts below are safe
    for path in (0, 1):
        mask = paths == path
        if np.any(mask):
            arrivals[mask] += ref_dispersion_time_shift(
                det[mask], channel, PATH_SIGNS[path], sys_cfg.dispersion)
    return arrivals


def resource_arrivals(plan: NetworkPlan, sys_cfg: SystemConfig, resource_id: int,
                      duration_s: float, seed: int) -> dict[tuple[int, int], np.ndarray]:
    """Receiver arrival times of one resource alone, keyed by (user, path).

    Redraws every (signal user, idler user) outcome of the resource from
    its own derive_stream_seed("pairs", ...) stream, in the engine's draw
    order, and transforms the events with ref_photon_arrival_times. Each
    array is sorted.
    """
    pair = plan.resource_by_id(resource_id)
    duration_ps = int(round(duration_s * PS_PER_SECOND))
    sig_users = list(plan.subnet_users(pair.signal_subnet))
    idl_users = list(plan.subnet_users(pair.idler_subnet))
    p_sig = {u: arrival_probability(plan, sys_cfg, resource_id, "signal", u)
             for u in sig_users}
    p_idl = {u: arrival_probability(plan, sys_cfg, resource_id, "idler", u)
             for u in idl_users}
    p_sig[LOST] = 1.0 - sum(p_sig.values())
    p_idl[LOST] = 1.0 - sum(p_idl.values())
    src = sys_cfg.source
    duration = duration_ps / PS_PER_SECOND
    out: dict[tuple[int, int], list[np.ndarray]] = {}
    for u in sig_users + [LOST]:
        for v in idl_users + [LOST]:
            rng = np.random.default_rng(
                derive_stream_seed(seed, "pairs", resource_id, u, v))
            n = int(rng.poisson(src.pair_rate_hz * p_sig[u] * p_idl[v] * duration))
            if n == 0 or (u == LOST and v == LOST):
                continue
            times = np.sort(rng.uniform(0.0, duration_ps, size=n))
            detuning = rng.uniform(-src.bandwidth_ghz / 2.0,
                                   src.bandwidth_ghz / 2.0, size=n)
            path_s = rng.integers(0, 2, size=n)
            path_i = rng.integers(0, 2, size=n)
            corr = (rng.normal(0.0, src.correlation_jitter_ps, size=n)
                    if src.correlation_jitter_ps > 0 else np.zeros(n))
            block = (times, detuning, path_s, path_i, corr)
            for role, dest, paths in (("signal", u, path_s), ("idler", v, path_i)):
                if dest == LOST:
                    continue
                arr = ref_photon_arrival_times(block, role, dest, pair, sys_cfg)
                for path in (0, 1):
                    out.setdefault((dest, path), []).append(arr[paths == path])
    return {key: np.sort(np.concatenate(chunks))
            for key, chunks in sorted(out.items())}


def unpack(tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stream of packed tags as (times, paths)."""
    return tag_times(tags), tag_paths(tags)


def path_streams(result: sim.ScenarioResult) -> dict[tuple[int, int], np.ndarray]:
    """Each user's tag times split by path, keyed (user, path)."""
    return {(user, path): tag_times(tags[tag_paths(tags) == path])
            for user, tags in result.streams.items() for path in (0, 1)}


def path_tag_rows(result: sim.ScenarioResult) -> dict[tuple[int, int], np.ndarray]:
    """Each user's tag_pair_rows split by path, keyed (user, path)."""
    return {(user, path): result.tag_pair_rows[user][tag_paths(tags) == path]
            for user, tags in result.streams.items() for path in (0, 1)}


def truth_rows(truth: sim.TruthLog) -> dict[str, np.ndarray]:
    """Every TRUTH_CSV_HEADER column of a truth log with one value per
    row: int64 pair ids counted from 0, and each run's int32 resource
    and users repeated over its rows."""
    lengths = np.diff(np.append(truth.first_row, len(truth)))
    rows = {"pair_id": np.arange(len(truth), dtype=np.int64),
            "t_emit_ps": truth.t_emit_ps,
            "signal_detected": truth.signal_detected,
            "idler_detected": truth.idler_detected}
    for name in ("resource_id", "signal_user", "idler_user"):
        rows[name] = np.repeat(getattr(truth, name), lengths).astype(np.int32)
    return {name: rows[name] for name in TRUTH_CSV_HEADER}


def ref_write_truth_csv(truth: sim.TruthLog, path) -> None:
    """One csv.writer row per pair, one int() per cell; t_emit_ps through
    Python's round(), which rounds half to even."""
    columns = truth_rows(truth)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_CSV_HEADER)
        for k in range(len(truth)):
            writer.writerow([round(float(col[k])) if name == "t_emit_ps"
                             else int(col[k]) for name, col in columns.items()])


def ref_write_tag_stream(path, user: int, path_index: int, duration_ps: int,
                         seed: int, tags: np.ndarray) -> None:
    """One write per tag."""
    with open(path, "w") as fh:
        fh.write(f"{user},{PATH_NAMES[path_index]},{duration_ps},{seed}\n")
        for t in tags:
            fh.write(f"{int(t)}\n")


def ref_write_histograms_csv(histograms, links, path) -> None:
    """The run-wide lines of the first link, then one csv.writer row per
    bin of each distinct link, in first-occurrence order."""
    blocks = list(dict.fromkeys(links))
    first = histograms[blocks[0]]
    with open(path, "w", newline="") as fh:
        fh.write(f"# bin_width_ps={first.bin_width_ps}\n")
        fh.write(f"# duration_ps={first.duration_ps}\n")
        writer = csv.writer(fh)
        writer.writerow(HISTOGRAMS_CSV_HEADER)
        for (ua, ub) in blocks:
            hist = histograms[(ua, ub)]
            for d, c in zip(hist.delays_ps(), hist.counts):
                writer.writerow([ua, ub, hist.offset_ps, hist.singles_a,
                                 hist.singles_b, int(d), int(c)])


def read_histograms_csv(path) -> dict[tuple[int, int], CorrelationHistogram]:
    """Rebuild each link's histogram from histograms.csv, in file order.
    Checks that every block's delays are its bin centers."""
    with open(path, newline="") as fh:
        meta = dict(next(fh).rstrip("\n")[2:].split("=") for _ in range(2))
        rows = list(csv.reader(fh))
    assert rows[0] == HISTOGRAMS_CSV_HEADER
    bin_width, duration = int(meta["bin_width_ps"]), int(meta["duration_ps"])
    blocks: dict[tuple[int, int], list] = {}
    for row in rows[1:]:
        ua, ub, offset, sa, sb, delay, count = map(int, row)
        if (ua, ub) not in blocks:
            blocks[(ua, ub)] = []
            last = (ua, ub)
        assert (ua, ub) == last, f"link {ua}-{ub} split into two blocks"
        blocks[(ua, ub)].append((offset, sa, sb, delay, count))
    histograms = {}
    for link, block in blocks.items():
        (offset, sa, sb), = {row[:3] for row in block}
        hist = CorrelationHistogram(
            bin_width_ps=bin_width, offset_ps=offset,
            counts=np.array([row[4] for row in block], dtype=np.int64),
            singles_a=sa, singles_b=sb, duration_ps=duration)
        assert [row[3] for row in block] == hist.delays_ps().tolist()
        histograms[link] = hist
    return histograms
