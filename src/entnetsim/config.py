"""Scenario configuration: flat sectioned key-value text, fully validated.

Every parameter has a default; an empty file reproduces the reference
40-user scenario. Each default carries a provenance tag distinguishing
measured hardware figures from calibration choices; the tags are emitted
into the run metadata so the two are never silently conflated. The range
of each value, finite for a float, is checked by the constructor that
takes it (build_plan and the dataclasses, whose defaults SCHEMA reuses).
A ScenarioConfig is a resolved run: constructing one builds the plan,
the system and the QKD settings and resolves the link set once, and
names the key of a refused value.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields
from itertools import combinations

from .doqkd import FrameConfig, QkdConfig
from .photonics import DetectorConfig, DispersionConfig, SourceConfig
from .plan import (DEFAULT_CHANNEL_RANGE, DEFAULT_PUMP_GUARD, ItuChannel,
                   NetworkPlan, ParameterError, build_plan)
from .sim import LossBudget, SystemConfig, duration_ps_of


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
        "channel_min": ("int", "reference", DEFAULT_CHANNEL_RANGE[0]),
        "channel_max": ("int", "reference", DEFAULT_CHANNEL_RANGE[1]),
        "pump_guard": ("int", "reference", DEFAULT_PUMP_GUARD),
        "fiber_km": ("usermap", "reference",
                     tuple(LossBudget().fiber_km.items())),
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
# every other argument is found by name in SCHEMA (_key_path).
ARGUMENT_KEYS = {"num_subnets": "network.subnets", "pump": "network.pump_channel",
                 "valid_range": "network.channel_min",
                 "magnitude_ps_per_nm": "detector.dispersion_ps_per_nm",
                 "insertion_loss_db": "losses.dispersion_db"}


@dataclass(frozen=True)
class ScenarioConfig:
    """A resolved run: the values, and the plan, system, QKD settings and
    link set built from them once, by the constructor.

    The constructor raises ConfigError naming the key of a value the run
    cannot use. The constructors of the plan, the system and the QKD
    settings check every network, physics and qkd range; checked here is
    only what none of them sees: the run section (the duration by
    sim.duration_ps_of, as run_scenario checks it), and the users of the
    fiber map and of the selected links, in one place.
    """

    values: dict[str, dict[str, object]] = field(repr=False)
    _plan: NetworkPlan = field(init=False, compare=False, repr=False)
    _system: SystemConfig = field(init=False, compare=False, repr=False)
    _qkd: QkdConfig = field(init=False, compare=False, repr=False)
    # run.links resolved (resolve_links) as (user, user) tuples, and the
    # users of those links, ascending: run_scenario's selected_users
    selected_links: tuple = field(init=False, compare=False, repr=False)
    selected_users: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        net = self.values["network"]
        try:
            plan = build_plan(net["subnets"], net["subnet_size"],
                              ItuChannel(net["pump_channel"]),
                              valid_range=(net["channel_min"], net["channel_max"]),
                              pump_guard=net["pump_guard"])
            system = SystemConfig(
                source=self._build(SourceConfig),
                detector=self._build(DetectorConfig),
                dispersion=self._build(DispersionConfig),
                losses=self._build(LossBudget, fiber_km=dict(net["fiber_km"])))
            qkd = self._build(QkdConfig, frames=self._build(FrameConfig))
            duration_ps_of(self.duration_s)
            ParameterError.check("seed", self.seed, 0)
        except ParameterError as exc:
            raise ConfigError(f"{_key_path(exc.name)}: {exc.rule}") from None
        try:
            links = tuple(resolve_links(plan, self.links))
        except ValueError:
            raise ConfigError(
                f"run.links: expected one of {', '.join(LINK_SETS)} or a"
                " comma-separated list like 0-1,0-2") from None
        users = tuple(sorted({u for link in links for u in link}))
        fiber_users = [user for user, _ in net["fiber_km"]]
        for key, listed in (("network.fiber_km", fiber_users), ("run.links", users)):
            bad = [u for u in listed if not 0 <= u < plan.num_users]
            if bad:
                raise ConfigError(
                    f"{key}: user {bad[0]} not in 0..{plan.num_users - 1}")
        twice = [u for i, u in enumerate(fiber_users) if u in fiber_users[:i]]
        if twice:
            raise ConfigError(f"network.fiber_km: user {twice[0]} listed twice")
        for name, value in (("_plan", plan), ("_system", system), ("_qkd", qkd),
                            ("selected_links", links), ("selected_users", users)):
            object.__setattr__(self, name, value)

    def _build(self, cls, **given):
        """cls with the given arguments, the rest read from their keys."""
        for arg in fields(cls):
            if arg.name not in given:
                given[arg.name] = self.get(*_key_path(arg.name).split("."))
        return cls(**given)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def network_plan(self) -> NetworkPlan:
        return self._plan

    def system(self) -> SystemConfig:
        return self._system

    def qkd(self) -> QkdConfig:
        return self._qkd

    @property
    def duration_s(self) -> float:
        return self.values["run"]["duration_s"]

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    @property
    def links(self) -> str:
        """The run.links selector; selected_links holds its links."""
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


def representative_users(plan: NetworkPlan) -> list[int]:
    """One user per subnet for the inter-subnet measurements: the first
    user of each subnet (in the reference network, subnet A's first user
    carries the 1 km fiber)."""
    return [plan.subnet_users(s)[0] for s in range(plan.num_subnets)]


def intra_subnet_links(plan: NetworkPlan, subnet: int) -> list[tuple[int, int]]:
    """All user pairs of one subnet, in lexicographic order (the reference
    labeling 1..28 for an 8-user subnet)."""
    return list(combinations(plan.subnet_users(subnet), 2))


def inter_rep_links(plan: NetworkPlan) -> list[tuple[int, int]]:
    """The representative inter-subnet pairs, lexicographic: AB, AC, ..."""
    return list(combinations(representative_users(plan), 2))


def first_pair_links(plan: NetworkPlan) -> list[tuple[int, int]]:
    """One intra pair per subnet: its first two users."""
    return [(plan.subnet_users(s)[0], plan.subnet_users(s)[1])
            for s in range(plan.num_subnets)]


# Each figure's links, as report.emit_figure_data describes them.
FIGURE_LINKS = {"fig3a": first_pair_links, "fig3b": inter_rep_links,
                "fig4a": lambda plan: intra_subnet_links(plan, 0),
                "fig4b": inter_rep_links}
FIGURES = tuple(FIGURE_LINKS)


# A link set is its figures' links (FIGURE_LINKS) in order, each once:
# default and fig4 are the first subnet's intra links and the representative
# inter links; fig3 one intra pair per subnet and the same inter links.
# None (all) is every pair of users.
LINK_SETS = {"default": ("fig4a", "fig4b"), "all": None,
             "fig3": ("fig3a", "fig3b"), "fig4": ("fig4a", "fig4b"),
             "figures": ("fig4a", "fig4b", "fig3a", "fig3b")}


def resolve_links(plan: NetworkPlan, selector: str) -> list[tuple[int, int]]:
    """A link-set name (LINK_SETS) or an explicit list (parse_link_list) as
    ordered user pairs; ValueError for a selector that is neither."""
    if selector not in LINK_SETS:
        return parse_link_list(selector)
    figures = LINK_SETS[selector]
    if figures is None:
        return list(combinations(plan.users(), 2))
    return list(dict.fromkeys(link for figure in figures
                              for link in FIGURE_LINKS[figure](plan)))


def override_map(seed=None, duration_s=None, links=None,
                 direct_detection=False) -> dict[str, object]:
    """The config key -> value map of the run-level overrides given."""
    overrides = {}
    if seed is not None:
        overrides["run.seed"] = int(seed)
    if duration_s is not None:
        overrides["run.duration_s"] = float(duration_s)
    if links is not None:
        overrides["run.links"] = str(links)
    if direct_detection:
        overrides["detector.dispersion_ps_per_nm"] = 0.0
    return overrides


def _resolve(values: dict, overrides: dict) -> ScenarioConfig:
    """The run of a copy of values with overrides applied."""
    values = {section: dict(body) for section, body in values.items()}
    for path, value in overrides.items():
        section, key = path.split(".")
        values[section][key] = value
    return ScenarioConfig(values=values)


def default_config() -> ScenarioConfig:
    return parse_config_text("")


def parse_config_text(text: str, source: str = "<string>",
                      overrides: dict | None = None) -> ScenarioConfig:
    """The run of config text with overrides (override_map) applied."""
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
    return _resolve(values, overrides or {})


def parse_config(path, overrides: dict | None = None) -> ScenarioConfig:
    """Load a config file as parse_config_text does."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path), overrides=overrides)


def with_overrides(cfg: ScenarioConfig, **run_overrides) -> ScenarioConfig:
    """The run of cfg with override_map(**run_overrides) applied."""
    return _resolve(cfg.values, override_map(**run_overrides))
