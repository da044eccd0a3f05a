"""Two-layer wavelength/space allocation for a fully connected network.

K subnets of M users each are fully connected with K*(K+1)/2 correlated
channel pairs from one broadband source: one pair per subnet (both channels
multiplexed into the subnet splitter) plus one pair per unordered subnet
pair (signal channel to one subnet, idler to the other). Every unordered
user pair then shares exactly one entanglement resource, so KM users need
only K*(K+1) grid channels instead of the KM*(KM-1) a direct
one-channel-pair-per-link design would burn.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from itertools import combinations

# ITU 100 GHz C-band grid: channel n sits at (190.0 + 0.1*n) THz.
GRID_BASE_THZ = 190.0
GRID_STEP_THZ = 0.1
SPEED_OF_LIGHT_NM_THZ = 299792.458  # c in nm*THz

DEFAULT_CHANNEL_RANGE = (21, 59)
# Grid slots reserved on each side of the pump (build_plan).
DEFAULT_PUMP_GUARD = 4


class ParameterError(ValueError):
    """An argument out of range: `name` is the argument, `rule` the
    condition it breaks."""

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name}: {rule}")
        self.name, self.rule = name, rule

    @classmethod
    def check(cls, name: str, value, low, high=math.inf, *,
              low_open: bool = False, high_open: bool = False) -> None:
        """Raise `cls` naming `name` unless `value` is finite and lies
        between low and high; each end is closed unless marked open."""
        if not (-math.inf < value < math.inf
                and (low < value if low_open else low <= value)
                and (value < high if high_open else value <= high)):
            interval = (f"{'(' if low_open else '['}{low:g}, {high:g}"
                        f"{')' if high_open else ']'}")
            raise cls(name, f"must be finite and in {interval}, got {value!r}")


class CapacityError(ParameterError):
    """Not enough grid channels around the pump for the requested plan;
    named after num_subnets, the count that sets the plan's reach."""


class UnknownUserError(KeyError):
    """User id not present in the plan."""


@dataclass(frozen=True, order=True)
class ItuChannel:
    """One 100 GHz grid slot, identified by its ITU C-band index."""

    index: int

    def frequency_thz(self) -> float:
        return GRID_BASE_THZ + GRID_STEP_THZ * self.index

    def wavelength_nm(self) -> float:
        return SPEED_OF_LIGHT_NM_THZ / self.frequency_thz()

    def label(self) -> str:
        return f"C{self.index}"


@dataclass(frozen=True)
class ChannelPair:
    """One entanglement resource: a signal/idler channel pair, mirror-symmetric
    about the pump, and the subnets its two channels are multiplexed toward
    (equal for an intra resource). Canonical orientation puts the higher
    index on the signal."""

    signal: ItuChannel
    idler: ItuChannel
    resource_id: int
    signal_subnet: int
    idler_subnet: int

    def __post_init__(self):
        if self.signal.index <= self.idler.index:
            raise ValueError("signal channel index must exceed idler channel index")

    def channels(self) -> tuple[ItuChannel, ItuChannel]:
        return (self.signal, self.idler)


def subnet_label(subnet_id: int) -> str:
    """A, B, C, ... for the first 26 subnets, then S26, S27, ..."""
    if 0 <= subnet_id < 26:
        return string.ascii_uppercase[subnet_id]
    return f"S{subnet_id}"


@dataclass(frozen=True)
class NetworkPlan:
    """Full allocation: which resource serves which subnet or subnet pair,
    and which channels each user receives. resources is in id order
    (resource k at index k - 1): the intra pairs first, then one pair per
    subnet pair."""

    pump: ItuChannel
    num_subnets: int
    subnet_size: int
    valid_range: tuple[int, int]
    pump_guard: int
    resources: tuple[ChannelPair, ...]
    user_manifests: tuple[tuple[ItuChannel, ...], ...] = field(repr=False)

    @property
    def num_users(self) -> int:
        return self.num_subnets * self.subnet_size

    def users(self) -> range:
        return range(self.num_users)

    def subnet_of(self, user_id: int) -> int:
        if not 0 <= user_id < self.num_users:
            raise UnknownUserError(f"user {user_id} not in plan (0..{self.num_users - 1})")
        return user_id // self.subnet_size

    def subnet_users(self, subnet_id: int) -> range:
        if not 0 <= subnet_id < self.num_subnets:
            raise ValueError(f"subnet {subnet_id} not in plan")
        return range(subnet_id * self.subnet_size, (subnet_id + 1) * self.subnet_size)

    def resource_by_id(self, resource_id: int) -> ChannelPair:
        if not 1 <= resource_id <= len(self.resources):
            raise KeyError(f"resource {resource_id} not in plan")
        return self.resources[resource_id - 1]

    def distinct_channels(self) -> set[ItuChannel]:
        return {ch for pair in self.resources for ch in pair.channels()}


def naive_channel_count(num_users: int) -> int:
    """Channels a flat one-resource-per-link design needs for full connectivity."""
    if num_users < 2:
        raise ValueError("need at least 2 users")
    return num_users * (num_users - 1)


def build_plan(num_subnets: int, subnet_size: int, pump: ItuChannel,
               valid_range: tuple[int, int] = DEFAULT_CHANNEL_RANGE,
               pump_guard: int = DEFAULT_PUMP_GUARD) -> NetworkPlan:
    """Construct the deterministic two-layer allocation.

    The pump_guard innermost grid slots on each side of the pump are
    reserved (pump rejection prevents extracting pairs there; the
    reference source starts at the fifth slot out, C35/C45). Intra
    resources then take the K innermost extracted pairs (resource ids
    1..K, resource i serving subnet i-1); inter resources take the next
    K*(K-1)/2 pairs outward, assigned to unordered subnet pairs in
    lexicographic order. For subnet pair (a, b) with a < b the signal
    (higher-index) channel is multiplexed toward subnet a. Raises
    ParameterError naming an argument out of range (CapacityError when
    the plan does not fit the grid).
    """
    ParameterError.check("num_subnets", num_subnets, 1)
    ParameterError.check("subnet_size", subnet_size, 2)
    ParameterError.check("pump_guard", pump_guard, 0)
    lo, hi = valid_range
    if lo >= hi:
        raise ParameterError("valid_range", f"C{lo}..C{hi} is empty")
    ParameterError.check("pump", pump.index, lo, hi)

    total_pairs = num_subnets * (num_subnets + 1) // 2
    reach = pump_guard + total_pairs
    if pump.index - reach < lo or pump.index + reach > hi:
        raise CapacityError(
            "num_subnets",
            f"{total_pairs} channel pairs beyond a {pump_guard}-channel pump"
            f" guard need grid indices C{pump.index - reach}.."
            f"C{pump.index + reach}, but the valid range is C{lo}..C{hi}")

    ends = [(subnet, subnet) for subnet in range(num_subnets)]
    ends.extend(combinations(range(num_subnets), 2))
    resources = tuple(
        ChannelPair(ItuChannel(pump.index + pump_guard + rid),
                    ItuChannel(pump.index - pump_guard - rid), rid, a, b)
        for rid, (a, b) in enumerate(ends, 1))

    manifests = []
    for subnet in range(num_subnets):
        manifest = tuple(
            ch for pair in resources
            for ch, end in zip(pair.channels(),
                               (pair.signal_subnet, pair.idler_subnet))
            if end == subnet)
        manifests.extend([manifest] * subnet_size)

    return NetworkPlan(
        pump=pump,
        num_subnets=num_subnets,
        subnet_size=subnet_size,
        valid_range=valid_range,
        pump_guard=pump_guard,
        resources=resources,
        user_manifests=tuple(manifests),
    )


def resource_for_link(plan: NetworkPlan, user_a: int, user_b: int
                      ) -> tuple[int, ChannelPair, str]:
    """The unique resource shared by two distinct users: (id, pair, kind)."""
    if user_a == user_b:
        raise UnknownUserError(f"link endpoints must differ (got user {user_a} twice)")
    ends = tuple(sorted((plan.subnet_of(user_a), plan.subnet_of(user_b))))
    pair = next(p for p in plan.resources
                if (p.signal_subnet, p.idler_subnet) == ends)
    return (pair.resource_id, pair, "intra" if ends[0] == ends[1] else "inter")


@dataclass(frozen=True)
class ConnectivityReport:
    link_count: int
    passed: bool
    uncovered: tuple[tuple[int, int], ...]
    multiply_covered: tuple[tuple[int, int], ...]
    link_resources: dict[tuple[int, int], int] = field(repr=False)


def verify_full_connectivity(plan: NetworkPlan) -> ConnectivityReport:
    """Check every unordered user pair shares exactly one resource.

    Works from the user manifests alone (not the construction rule): a
    resource connects users u and v when one of them receives its signal
    channel and the other its idler channel.
    """
    manifest_sets = [frozenset(m) for m in plan.user_manifests]

    uncovered = []
    multiple = []
    link_resources: dict[tuple[int, int], int] = {}
    for u, v in combinations(plan.users(), 2):
        mu, mv = manifest_sets[u], manifest_sets[v]
        sharing = [p.resource_id for p in plan.resources
                   if (p.signal in mu and p.idler in mv)
                   or (p.idler in mu and p.signal in mv)]
        if not sharing:
            uncovered.append((u, v))
        elif len(sharing) > 1:
            multiple.append((u, v))
        else:
            link_resources[(u, v)] = sharing[0]

    total = plan.num_users * (plan.num_users - 1) // 2
    return ConnectivityReport(
        link_count=total,
        passed=not uncovered and not multiple,
        uncovered=tuple(uncovered),
        multiply_covered=tuple(multiple),
        link_resources=link_resources,
    )
