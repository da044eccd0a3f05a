"""Closed-form expected rates for a scenario.

Independent of the event engine: everything here is computed directly from
the configured probabilities, so tests can hold the simulator's statistics
against these numbers.
"""

from __future__ import annotations

import math

from .photonics import wavelength_shift_nm_per_ghz
from .plan import ChannelPair, NetworkPlan, resource_for_link
from .sim import SystemConfig, arrival_probability


def expected_singles_rate(plan: NetworkPlan, sys_cfg: SystemConfig,
                          user: int, path: int | None = None) -> float:
    """Expected detected counts/s at one user (one path, or both if None).

    Sum over resources of pair_rate * P(arrival) * efficiency for each role
    whose channel is multiplexed toward the user's subnet, plus dark counts.
    Dead-time losses are not corrected for (sub-percent at calibrated rates).
    """
    subnet = plan.subnet_of(user)
    rate = 0.0
    for pair in plan.resources:
        for role, res_subnet in (("signal", pair.signal_subnet),
                                 ("idler", pair.idler_subnet)):
            if res_subnet == subnet:
                rate += (sys_cfg.source.pair_rate_hz
                         * arrival_probability(plan, sys_cfg, pair.resource_id,
                                               role, user)
                         * sys_cfg.detector.efficiency)
    dark = sys_cfg.detector.dark_rate_hz
    if path is None:
        return rate + 2.0 * dark
    return rate / 2.0 + dark


def monitor_expected_iqr_ps(pair: ChannelPair, sys_cfg: SystemConfig) -> float:
    """Expected IQR of same-sign-path pair delays for one resource.

    With uniform in-band detuning the same-sign delay envelope is uniform
    with full width 2*D*(lambda^2/c)*bandwidth, whose IQR is half of that.
    The shift coefficient is averaged over the pair's two channels.
    """
    coef = 0.5 * (abs(wavelength_shift_nm_per_ghz(pair.signal))
                  + abs(wavelength_shift_nm_per_ghz(pair.idler)))
    return (sys_cfg.dispersion.magnitude_ps_per_nm * coef
            * sys_cfg.source.bandwidth_ghz)


def jitter_floor_iqr_ps(sys_cfg: SystemConfig) -> float:
    """IQR of the dispersion-cancelled pair-delay distribution: the
    Gaussian jitter floor expressed as an interquartile range."""
    return 1.3489795003921634 * pair_delta_sigma_ps(sys_cfg)


def pair_delta_sigma_ps(sys_cfg: SystemConfig) -> float:
    """Timing spread (std, ps) between the two tags of a detected pair when
    dispersion shifts cancel: two detector jitters plus the intrinsic
    pair correlation width."""
    return math.sqrt(2.0 * sys_cfg.detector.jitter_ps ** 2
                     + sys_cfg.source.correlation_jitter_ps ** 2)


def window_capture_fraction(window_ps: float, sigma_ps: float) -> float:
    """Fraction of a centered Gaussian delta-t landing within a full-width
    window."""
    if sigma_ps <= 0:
        return 1.0
    return math.erf(window_ps / 2.0 / (sigma_ps * math.sqrt(2.0)))


def expected_coincidence_rate(plan: NetworkPlan, sys_cfg: SystemConfig,
                              user_a: int, user_b: int,
                              window_ps: float | None = None) -> float:
    """Expected true-coincidence rate (counts/s) for one link.

    For an intra link either photon can land on either user, so both role
    assignments contribute; an inter link has its roles fixed by the
    wavelength routing. window_ps, when given, applies the jitter capture
    fraction of a full-width coincidence window.
    """
    rid, pair, kind = resource_for_link(plan, user_a, user_b)
    eff = sys_cfg.detector.efficiency
    rate = sys_cfg.source.pair_rate_hz * eff * eff

    def p(role, user):
        return arrival_probability(plan, sys_cfg, rid, role, user)

    if kind == "intra":
        both = p("signal", user_a) * p("idler", user_b) \
            + p("signal", user_b) * p("idler", user_a)
    elif plan.subnet_of(user_a) == pair.signal_subnet:
        both = p("signal", user_a) * p("idler", user_b)
    else:
        both = p("signal", user_b) * p("idler", user_a)
    rate *= both
    if window_ps is not None:
        rate *= window_capture_fraction(window_ps, pair_delta_sigma_ps(sys_cfg))
    return rate


def expected_accidental_rate(plan: NetworkPlan, sys_cfg: SystemConfig,
                             user_a: int, user_b: int, window_ps: float) -> float:
    """Uncorrelated-coincidence rate in a full-width window: Ra * Rb * tau."""
    ra = expected_singles_rate(plan, sys_cfg, user_a)
    rb = expected_singles_rate(plan, sys_cfg, user_b)
    return ra * rb * (window_ps * 1e-12)
