"""Planner: grid arithmetic, allocation construction, connectivity."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from entnetsim.plan import (CapacityError, ChannelPair, ItuChannel,
                            UnknownUserError, build_plan, naive_channel_count,
                            resource_for_link, subnet_label,
                            verify_full_connectivity)

WIDE = (1, 200)  # generous grid for scaling tests beyond the default span


class TestGrid:
    def test_c40_is_194_thz(self):
        assert ItuChannel(40).frequency_thz() == pytest.approx(194.0)
        assert ItuChannel(40).wavelength_nm() == pytest.approx(1545.32, abs=0.01)

    def test_grid_symmetry_about_pump(self):
        f35 = ItuChannel(35).frequency_thz()
        f45 = ItuChannel(45).frequency_thz()
        assert f35 == pytest.approx(193.5)
        assert f45 == pytest.approx(194.5)
        assert f35 + f45 == pytest.approx(2 * 194.0)

    def test_c21_frequency_and_wavelength(self):
        # formula evaluation, cross-checked against the published
        # 100 GHz grid table entry for channel 21 (1560.61 nm)
        assert ItuChannel(21).frequency_thz() == pytest.approx(192.1)
        assert ItuChannel(21).wavelength_nm() == pytest.approx(1560.61, abs=0.01)


class TestBuildPlan:
    def test_reference_network(self, reference_plan):
        assert len(reference_plan.resources) == 15
        assert len(reference_plan.distinct_channels()) == 30
        assert reference_plan.num_users == 40
        assert all(len(m) == 6 for m in reference_plan.user_manifests)

    def test_single_subnet_degenerate(self):
        plan = build_plan(1, 8, ItuChannel(40))
        assert len(plan.resources) == 1
        assert all(len(m) == 2 for m in plan.user_manifests)

    def test_two_subnets(self):
        plan = build_plan(2, 8, ItuChannel(40))
        assert len(plan.resources) == 3
        # the inter resource is the next pair outward from the intra block
        pair = plan.resources[2]
        assert (pair.signal_subnet, pair.idler_subnet) == (0, 1)
        assert pair.resource_id == 3
        assert (pair.signal.index, pair.idler.index) == (47, 33)

    def test_intra_pairs_are_innermost_extracted(self, reference_plan):
        # extraction starts outside the 4-channel pump guard: C35/C45 first
        intra = reference_plan.resources[:5]
        assert [(p.signal_subnet, p.idler_subnet) for p in intra] == [
            (s, s) for s in range(5)]
        labels = [(p.signal.index, p.idler.index) for p in intra]
        assert labels == [(45, 35), (46, 34), (47, 33), (48, 32), (49, 31)]

    def test_outermost_pair_is_c21_c59(self, reference_plan):
        pair = reference_plan.resource_by_id(15)
        assert (pair.signal.index, pair.idler.index) == (59, 21)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build_plan(6, 8, ItuChannel(40))  # needs C19/C61 on a 21..59 grid

    def test_signal_to_lower_subnet(self, reference_plan):
        for pair in reference_plan.resources[5:]:
            a, b = pair.signal_subnet, pair.idler_subnet
            assert a < b
            # user in subnet a holds the signal channel, subnet b the idler
            user_a = reference_plan.subnet_users(a)[0]
            user_b = reference_plan.subnet_users(b)[0]
            assert pair.signal in reference_plan.user_manifests[user_a]
            assert pair.idler in reference_plan.user_manifests[user_b]

    def test_channel_pair_orientation_enforced(self):
        with pytest.raises(ValueError):
            ChannelPair(signal=ItuChannel(35), idler=ItuChannel(45), resource_id=1,
                        signal_subnet=0, idler_subnet=0)


class TestConnectivity:
    def test_reference_network_780_links(self, reference_plan):
        report = verify_full_connectivity(reference_plan)
        assert report.link_count == 780
        assert report.passed
        assert not report.uncovered and not report.multiply_covered
        assert len(report.link_resources) == 780

    def test_minimal_network(self):
        plan = build_plan(1, 2, ItuChannel(40))
        report = verify_full_connectivity(plan)
        assert report.link_count == 1
        assert report.passed
        assert report.link_resources[(0, 1)] == 1

    def test_three_by_four(self):
        # 12 users -> 66 links, independently enumerated here
        plan = build_plan(3, 4, ItuChannel(40))
        report = verify_full_connectivity(plan)
        expected_links = len(list(combinations(range(12), 2)))
        assert expected_links == 66
        assert report.link_count == 66
        assert report.passed


class TestNaiveChannelCount:
    def test_four_users(self):
        assert naive_channel_count(4) == 12

    def test_two_users(self):
        assert naive_channel_count(2) == 2

    def test_forty_users_vs_architecture(self, reference_plan):
        assert naive_channel_count(40) == 1560
        assert len(reference_plan.distinct_channels()) == 30

    def test_below_two_users(self):
        with pytest.raises(ValueError):
            naive_channel_count(1)


class TestResourceForLink:
    def test_intra_link_uses_subnet_resource(self, reference_plan):
        rid, pair, kind = resource_for_link(reference_plan, 2, 5)
        assert kind == "intra"
        assert (pair.signal.index, pair.idler.index) == (45, 35)
        assert rid == 1

    def test_inter_link_uses_pair_resource(self, reference_plan):
        rid, pair, kind = resource_for_link(reference_plan, 0, 8)  # subnets A, B
        assert kind == "inter"
        assert rid == 6  # first inter resource connects the first subnet pair

    def test_same_user_rejected(self, reference_plan):
        with pytest.raises(UnknownUserError):
            resource_for_link(reference_plan, 3, 3)

    def test_unknown_user_rejected(self, reference_plan):
        with pytest.raises(UnknownUserError):
            resource_for_link(reference_plan, 0, 40)


class TestSubnetLabels:
    def test_letters_then_numbered(self):
        assert subnet_label(0) == "A"
        assert subnet_label(4) == "E"
        assert subnet_label(26) == "S26"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=10))
def test_plan_properties(num_subnets, subnet_size):
    plan = build_plan(num_subnets, subnet_size, ItuChannel(100), valid_range=WIDE)
    k, m = num_subnets, subnet_size

    assert len(plan.resources) == k * (k + 1) // 2
    assert len(plan.distinct_channels()) == k * (k + 1)
    assert all(len(manifest) == k + 1 for manifest in plan.user_manifests)

    lo, hi = plan.valid_range
    for pair in plan.resources:
        assert pair.signal.index + pair.idler.index == 2 * plan.pump.index
        assert pair.signal.index > pair.idler.index
        assert all(lo <= ch.index <= hi for ch in pair.channels())
    # extraction starts just outside the pump guard
    assert (plan.resources[0].signal.index - plan.pump.index
            == plan.pump_guard + 1)

    for rid in range(1, len(plan.resources) + 1):
        assert plan.resource_by_id(rid).resource_id == rid
    for rid in (0, len(plan.resources) + 1):
        with pytest.raises(KeyError):
            plan.resource_by_id(rid)

    report = verify_full_connectivity(plan)
    assert report.passed
    assert report.link_count == (k * m) * (k * m - 1) // 2
    assert len(report.link_resources) == report.link_count
    # link_resources comes from the manifests alone, so it checks the table
    for (u, v), manifest_rid in report.link_resources.items():
        rid, _pair, kind = resource_for_link(plan, u, v)
        assert rid == manifest_rid
        assert (kind == "intra") == (plan.subnet_of(u) == plan.subnet_of(v))

    naive = naive_channel_count(k * m)
    assert naive >= len(plan.distinct_channels())
    if k * m >= 3:
        assert naive > len(plan.distinct_channels())


def test_plan_csv_round_trips(tmp_path, reference_plan):
    from entnetsim.report import write_plan_csv, PLAN_CSV_HEADER
    import csv

    out = tmp_path / "plan.csv"
    write_plan_csv(reference_plan, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == PLAN_CSV_HEADER
    user_rows = [r for r in rows[1:] if r[0] == "user"]
    resource_rows = [r for r in rows[1:] if r[0] == "resource"]
    assert len(user_rows) == 40
    assert len(resource_rows) == 15
    assert user_rows[0][3].count("+") == 5  # six channels
    assert resource_rows[0][7] == "intra"
    assert resource_rows[-1][7] == "inter"
    assert resource_rows[-1][8:] == ["D", "E"]
