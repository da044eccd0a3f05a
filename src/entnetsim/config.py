"""Scenario configuration: flat sectioned key-value text, fully validated.

Every parameter has a default; an empty file reproduces the reference
40-user scenario. Each default carries a provenance tag distinguishing
measured hardware figures from calibration choices; the tags are emitted
into the run metadata so the two are never silently conflated. The range
of each value, finite for a float, is checked by the constructor that
takes it (build_plan and the dataclasses, whose defaults SCHEMA reuses);
loading builds them once and names the key of a refused value.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

from .doqkd import FrameConfig, QkdConfig
from .photonics import (PS_PER_SECOND, DetectorConfig, DispersionConfig,
                        SourceConfig)
from .plan import ItuChannel, NetworkPlan, ParameterError, build_plan
from .sim import LossBudget, SystemConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# provenance: "reference" values reproduce the measured hardware the
# scenario models; "calibration" values are modeling choices documented in
# the README; "runtime" values are plain run controls.
SCHEMA: dict[str, dict[str, tuple[str, str, object]]] = {
    "network": {
        "subnets": ("int", "reference", 5),
        "subnet_size": ("int", "reference", 8),
        "pump_channel": ("int", "reference", 40),
        "channel_min": ("int", "reference", 21),
        "channel_max": ("int", "reference", 59),
        "pump_guard": ("int", "reference", 4),
        "fiber_km": ("usermap", "reference", ((0, 1.0), (1, 2.0))),
    },
    "source": {
        "pair_rate_hz": ("float", "calibration", SourceConfig.pair_rate_hz),
        "bandwidth_ghz": ("float", "reference", SourceConfig.bandwidth_ghz),
        "correlation_jitter_ps": ("float", "calibration",
                                  SourceConfig.correlation_jitter_ps),
    },
    "losses": {
        "awg_db": ("float", "reference", LossBudget.awg_db),
        "wdm_db": ("float", "reference", LossBudget.wdm_db),
        "splitter_db": ("float", "reference", LossBudget.splitter_db),
        "dispersion_db": ("float", "reference",
                          DispersionConfig.insertion_loss_db),
        "fiber_db_per_km": ("float", "calibration", LossBudget.fiber_db_per_km),
        "inter_extra_wdm_db": ("float", "reference",
                               LossBudget.inter_extra_wdm_db),
    },
    "detector": {
        "efficiency": ("float", "reference", DetectorConfig.efficiency),
        "dark_rate_hz": ("float", "reference", DetectorConfig.dark_rate_hz),
        "jitter_ps": ("float", "calibration", DetectorConfig.jitter_ps),
        "dead_time_ps": ("int", "calibration", DetectorConfig.dead_time_ps),
        "dispersion_ps_per_nm": ("float", "reference",
                                 DispersionConfig.magnitude_ps_per_nm),
    },
    "qkd": {
        "frame_length_ps": ("int", "calibration", FrameConfig.frame_length_ps),
        "bins_per_frame": ("int", "calibration", FrameConfig.bins_per_frame),
        "guard_band_ps": ("int", "calibration", FrameConfig.guard_band_ps),
        "beta": ("float", "calibration", QkdConfig.beta),
        "window_ps": ("int", "reference", QkdConfig.window_ps),
        "monitor_window_ps": ("int", "calibration", QkdConfig.monitor_window_ps),
    },
    "run": {
        "duration_s": ("float", "runtime", 60.0),
        "seed": ("int", "runtime", 42),
        "links": ("str", "runtime", "default"),
    },
}

# The config key of each constructor argument not named after its key;
# every other argument is found by name in SCHEMA.
ARGUMENT_KEYS = {"num_subnets": "network.subnets", "pump": "network.pump_channel",
                 "valid_range": "network.channel_min",
                 "magnitude_ps_per_nm": "detector.dispersion_ps_per_nm",
                 "insertion_loss_db": "losses.dispersion_db"}

LINK_SET_NAMES = ("default", "all", "fig3", "fig4", "figures")

# Emission and arrival times are float64 picoseconds, which hold every
# integer only up to 2**53 (about 9007 s).
MAX_DURATION_PS = 2**53


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs, resolved and validated."""

    values: dict[str, dict[str, object]] = field(repr=False)

    def get(self, section: str, key: str):
        return self.values[section][key]

    # typed views -------------------------------------------------------

    def network_plan(self) -> NetworkPlan:
        net = self.values["network"]
        return build_plan(net["subnets"], net["subnet_size"],
                          ItuChannel(net["pump_channel"]),
                          valid_range=(net["channel_min"], net["channel_max"]),
                          pump_guard=net["pump_guard"])

    def system(self) -> SystemConfig:
        src = self.values["source"]
        det = self.values["detector"]
        los = self.values["losses"]
        return SystemConfig(
            source=SourceConfig(pair_rate_hz=src["pair_rate_hz"],
                                bandwidth_ghz=src["bandwidth_ghz"],
                                correlation_jitter_ps=src["correlation_jitter_ps"]),
            detector=DetectorConfig(efficiency=det["efficiency"],
                                    dark_rate_hz=det["dark_rate_hz"],
                                    jitter_ps=det["jitter_ps"],
                                    dead_time_ps=det["dead_time_ps"]),
            dispersion=DispersionConfig(
                magnitude_ps_per_nm=det["dispersion_ps_per_nm"],
                insertion_loss_db=los["dispersion_db"]),
            losses=LossBudget(awg_db=los["awg_db"], wdm_db=los["wdm_db"],
                              splitter_db=los["splitter_db"],
                              fiber_db_per_km=los["fiber_db_per_km"],
                              inter_extra_wdm_db=los["inter_extra_wdm_db"],
                              fiber_km=dict(self.values["network"]["fiber_km"])),
        )

    def qkd(self) -> QkdConfig:
        q = self.values["qkd"]
        return QkdConfig(
            frames=FrameConfig(frame_length_ps=q["frame_length_ps"],
                               bins_per_frame=q["bins_per_frame"],
                               guard_band_ps=q["guard_band_ps"]),
            window_ps=q["window_ps"],
            monitor_window_ps=q["monitor_window_ps"],
            beta=q["beta"],
        )

    @property
    def duration_s(self) -> float:
        return self.values["run"]["duration_s"]

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    @property
    def links(self) -> str:
        return self.values["run"]["links"]

    # serialization ------------------------------------------------------

    def canonical_text(self) -> str:
        """Deterministic flat rendering; input to the config hash."""
        lines = []
        for section in sorted(self.values):
            for key in sorted(self.values[section]):
                lines.append(f"{section}.{key}={_render(self.values[section][key])}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def as_dict(self) -> dict:
        return {section: {key: _jsonable(val) for key, val in body.items()}
                for section, body in self.values.items()}


def _render(value) -> str:
    if isinstance(value, tuple):
        return ",".join(f"{u}:{_render(km)}" for u, km in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, tuple):
        return {str(u): km for u, km in value}
    return value


def provenance() -> dict[str, str]:
    """field path -> provenance tag for every configurable parameter."""
    return {f"{section}.{key}": spec[1]
            for section, body in SCHEMA.items() for key, spec in body.items()}


def _parse_value(section: str, key: str, kind: str, raw: str):
    path = f"{section}.{key}"
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "usermap":
            if not raw:
                return tuple()
            entries = []
            for item in raw.split(","):
                user, _, km = item.partition(":")
                entries.append((int(user.strip()), float(km.strip())))
            return tuple(entries)
    except ValueError as exc:
        raise ConfigError(f"{path}: cannot parse {raw!r} as {kind}") from exc
    raise ConfigError(f"{path}: unknown field kind {kind}")


def _key_path(argument: str) -> str:
    return ARGUMENT_KEYS.get(argument) or next(
        f"{section}.{argument}" for section, body in SCHEMA.items()
        if argument in body)


def _validate(cfg: ScenarioConfig) -> None:
    """Raise ConfigError naming the key of the first value a run cannot use.

    Builds the plan, the system and the QKD settings, whose constructors
    check every network, physics and qkd range; checked here is only what
    no constructor sees: the fiber map's users and the run section.
    """
    try:
        n_users = cfg.network_plan().num_users
        cfg.system()
        cfg.qkd()
        ParameterError.check("duration_s", cfg.duration_s, 0)
        ParameterError.check("seed", cfg.seed, 0)
    except ParameterError as exc:
        raise ConfigError(f"{_key_path(exc.name)}: {exc.rule}") from None
    seen = set()
    for user, _ in cfg.get("network", "fiber_km"):
        if not 0 <= user < n_users:
            raise ConfigError(f"network.fiber_km: user {user} not in 0..{n_users - 1}")
        if user in seen:
            raise ConfigError(f"network.fiber_km: user {user} listed twice")
        seen.add(user)

    if round(cfg.duration_s * PS_PER_SECOND) > MAX_DURATION_PS:
        raise ConfigError(
            f"run.duration_s: at most {MAX_DURATION_PS / PS_PER_SECOND:.0f} s;"
            " float64 picosecond times are exact only up to 2**53 ps")
    if cfg.links not in LINK_SET_NAMES:
        try:
            links = parse_link_list(cfg.links)
        except ValueError:
            raise ConfigError(
                f"run.links: expected one of {', '.join(LINK_SET_NAMES)} or a"
                " comma-separated list like 0-1,0-2") from None
        for user in (u for link in links for u in link):
            if not 0 <= user < n_users:
                raise ConfigError(
                    f"run.links: user {user} not in 0..{n_users - 1}")


def parse_link_list(text: str) -> list[tuple[int, int]]:
    """`A-B,C-D,...` as (min, max) user pairs in order of first mention; a
    pair given again, in either order, is dropped."""
    links = []
    for item in text.split(","):
        a, sep, b = item.strip().partition("-")
        if not sep:
            raise ValueError(f"bad link {item!r}, expected A-B")
        ua, ub = int(a), int(b)
        if ua == ub:
            raise ValueError(f"link endpoints must differ: {item!r}")
        links.append((min(ua, ub), max(ua, ub)))
    if not links:
        raise ValueError("empty link list")
    return list(dict.fromkeys(links))


def default_config() -> ScenarioConfig:
    values = {section: {key: spec[2] for key, spec in body.items()}
              for section, body in SCHEMA.items()}
    return ScenarioConfig(values=values)


def parse_config_text(text: str, source: str = "<string>") -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    values = {section: {key: spec[2] for key, spec in body.items()}
              for section, body in SCHEMA.items()}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            kind = SCHEMA[section][key][0]
            values[section][key] = _parse_value(section, key, kind, raw)
    cfg = ScenarioConfig(values=values)
    _validate(cfg)
    return cfg


def parse_config(path) -> ScenarioConfig:
    """Load and validate a config file; every default resolved."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def with_overrides(cfg: ScenarioConfig, **run_overrides) -> ScenarioConfig:
    """A copy with run-level overrides applied (seed, duration_s, links,
    direct_detection)."""
    values = {section: dict(body) for section, body in cfg.values.items()}
    if run_overrides.get("seed") is not None:
        values["run"]["seed"] = int(run_overrides["seed"])
    if run_overrides.get("duration_s") is not None:
        values["run"]["duration_s"] = float(run_overrides["duration_s"])
    if run_overrides.get("links") is not None:
        values["run"]["links"] = str(run_overrides["links"])
    if run_overrides.get("direct_detection"):
        values["detector"]["dispersion_ps_per_nm"] = 0.0
    new = ScenarioConfig(values=values)
    _validate(new)
    return new
