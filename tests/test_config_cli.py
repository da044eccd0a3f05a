"""Configuration parsing, CLI behavior, bundle outputs, reproducibility."""

import collections
import csv
import hashlib
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from entnetsim.cli import main
from entnetsim.config import (LINK_SETS, ConfigError, ScenarioConfig,
                              default_config, parse_config, parse_config_text,
                              provenance, with_overrides, SCHEMA)
from entnetsim import analysis, cli, config, report, sim
from entnetsim import plan as plan_module
from entnetsim.doqkd import QkdConfig
from entnetsim.plan import DEFAULT_CHANNEL_RANGE, DEFAULT_PUMP_GUARD, build_plan
from entnetsim.rates import expected_singles_rate
from entnetsim.report import (FigureDataError, check_memory, emit_figure_data,
                              resolve_links, run_bundle, write_bundle)
from entnetsim.sim import LossBudget, SystemConfig

import helpers
from test_sim import _assert_no_child

# One out-of-range value for each SCHEMA key with a range of its own;
# channel_max is bounded only through channel_min and the pump channel.
OUT_OF_RANGE = {
    "network.subnets": "0", "network.subnet_size": "1",
    "network.pump_channel": "70", "network.channel_min": "60",
    "network.pump_guard": "-1", "network.fiber_km": "0:-1",
    "source.pair_rate_hz": "0", "source.bandwidth_ghz": "0",
    "source.correlation_jitter_ps": "-1",
    **{f"losses.{key}": "-1" for key in SCHEMA["losses"]},
    "detector.efficiency": "1.5", "detector.dark_rate_hz": "-1",
    "detector.jitter_ps": "-1", "detector.dead_time_ps": "-1",
    "detector.dispersion_ps_per_nm": "-1",
    "qkd.frame_length_ps": "1028", "qkd.bins_per_frame": "6",
    "qkd.guard_band_ps": "64", "qkd.beta": "0", "qkd.window_ps": "0",
    "qkd.monitor_window_ps": "0",
    "run.duration_s": "-1", "run.seed": "-1", "run.links": "0-99",
}
FLOAT_KEYS = [f"{section}.{key}" for section, body in SCHEMA.items()
              for key, spec in body.items() if spec[0] in ("float", "usermap")]


def one_key_ini(path: str, raw: str) -> str:
    section, key = path.split(".")
    return f"[{section}]\n{key} = {raw}\n"


def no_simulation(*args, **kwargs):
    raise AssertionError("run_scenario was called")


class TestParseConfig:
    def test_empty_text_is_all_defaults(self):
        assert parse_config_text("").values == default_config().values

    def test_empty_file_is_all_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert parse_config(path).values == default_config().values

    def test_sample_file_is_all_defaults(self):
        sample = Path(__file__).resolve().parent.parent / "scenario.sample.ini"
        assert parse_config(sample) == default_config()

    def test_dataclass_defaults_are_the_config_defaults(self):
        cfg = default_config()
        assert cfg.qkd() == QkdConfig()
        assert cfg.system() == SystemConfig()

    def test_explicit_reference_values_match_default_plan(self):
        cfg = parse_config_text("[network]\nsubnets = 5\nsubnet_size = 8\n"
                                "pump_channel = 40\n")
        assert cfg.network_plan() == default_config().network_plan()

    def test_negative_dark_rate_names_field(self):
        with pytest.raises(ConfigError, match="detector.dark_rate_hz"):
            parse_config_text("[detector]\ndark_rate_hz = -5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key detector.gain"):
            parse_config_text("[detector]\ngain = 10\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[laser\]"):
            parse_config_text("[laser]\npower = 1\n")

    def test_unparseable_value_names_field(self):
        with pytest.raises(ConfigError, match="source.pair_rate_hz"):
            parse_config_text("[source]\npair_rate_hz = lots\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config(tmp_path / "nope.ini")

    def test_bad_links_value(self):
        with pytest.raises(ConfigError, match="run.links"):
            parse_config_text("[run]\nlinks = sometimes\n")

    def test_explicit_link_list_accepted(self):
        cfg = parse_config_text("[run]\nlinks = 0-1, 3-2\n")
        assert resolve_links(cfg.network_plan(), cfg.links) == [(0, 1), (2, 3)]
        assert cfg.selected_links == ((0, 1), (2, 3))
        assert cfg.selected_users == (0, 1, 2, 3)

    def test_fiber_map_parsing(self):
        cfg = parse_config_text("[network]\nfiber_km = 0:1.5, 5:0.25\n")
        assert cfg.system().losses.fiber_km == {0: 1.5, 5: 0.25}

    def test_guard_band_vs_bin_width(self):
        with pytest.raises(ConfigError, match="qkd.guard_band_ps"):
            parse_config_text("[qkd]\nguard_band_ps = 64\n")

    def test_every_key_with_a_range_listed(self):
        assert set(OUT_OF_RANGE) == set(provenance()) - {"network.channel_max"}

    @pytest.mark.parametrize("path", sorted(OUT_OF_RANGE))
    def test_out_of_range_value_names_its_key(self, path):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}:"):
            parse_config_text(one_key_ini(path, OUT_OF_RANGE[path]))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("path", FLOAT_KEYS)
    def test_non_finite_value_names_its_key(self, path, value):
        raw = f"0:{value}" if path == "network.fiber_km" else value
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}:"):
            parse_config_text(one_key_ini(path, raw))

    def test_user_listed_twice_in_fiber_map(self):
        """resolved_config would keep the last length while config_hash
        hashes both entries."""
        with pytest.raises(ConfigError,
                           match=r"^network\.fiber_km: user 0 listed twice"):
            parse_config_text("[network]\nfiber_km = 0:1.0, 0:3.0\n")

    def test_network_defaults_from_their_owners(self):
        """The channel range, pump guard and fiber lengths are the defaults
        of build_plan and LossBudget; subnets, subnet size and pump channel
        are the reference network's own values."""
        net = default_config().values["network"]
        plan_args = inspect.signature(build_plan).parameters
        assert set(net) == {"subnets", "subnet_size", "pump_channel",
                            "channel_min", "channel_max", "pump_guard",
                            "fiber_km"}
        assert ((net["channel_min"], net["channel_max"])
                == DEFAULT_CHANNEL_RANGE == plan_args["valid_range"].default)
        assert net["pump_guard"] == DEFAULT_PUMP_GUARD == plan_args[
            "pump_guard"].default
        assert dict(net["fiber_km"]) == LossBudget().fiber_km
        assert (net["subnets"], net["subnet_size"], net["pump_channel"]) == (
            5, 8, 40)

    def test_default_config_hash(self):
        assert default_config().config_hash() == (
            "c593666e960c851754e168a5d3c85091809e93b083f05c41966beb767f711087")

    def test_provenance_covers_every_key(self):
        tags = provenance()
        for section, body in SCHEMA.items():
            for key in body:
                assert tags[f"{section}.{key}"] in ("reference", "calibration",
                                                    "runtime")

    def test_config_hash_tracks_values(self):
        base = default_config()
        changed = with_overrides(base, seed=99)
        assert base.config_hash() != changed.config_hash()
        assert base.config_hash() == default_config().config_hash()

    def test_overrides(self):
        cfg = with_overrides(default_config(), seed=7, duration_s=1.5,
                             links="all", direct_detection=True)
        assert cfg.seed == 7
        assert cfg.duration_s == 1.5
        assert cfg.links == "all"
        assert cfg.get("detector", "dispersion_ps_per_nm") == 0.0


INTRA_A = list(itertools.combinations(range(8), 2))
INTER_REP = [(0, 8), (0, 16), (0, 24), (0, 32), (8, 16), (8, 24), (8, 32),
             (16, 24), (16, 32), (24, 32)]
FIRST_PAIRS = [(0, 1), (8, 9), (16, 17), (24, 25), (32, 33)]


class TestResolveLinks:
    def test_named_sets(self, reference_plan):
        """Each named set's links, in order, as the reference network has
        always resolved them."""
        pinned = {"default": INTRA_A + INTER_REP, "fig4": INTRA_A + INTER_REP,
                  "fig3": FIRST_PAIRS + INTER_REP,
                  "figures": INTRA_A + INTER_REP + FIRST_PAIRS[1:],
                  "all": list(itertools.combinations(range(40), 2))}
        assert set(LINK_SETS) == set(pinned)
        for name, links in pinned.items():
            assert resolve_links(reference_plan, name) == links, name
        assert [len(pinned[name]) for name in LINK_SETS] == [38, 780, 15, 38, 42]

    def test_default_set_composition(self, reference_plan):
        links = resolve_links(reference_plan, "default")
        intra = [l for l in links if l[1] < 8]
        inter = links[28:]
        assert len(intra) == 28
        assert intra[0] == (0, 1)
        assert inter == [(0, 8), (0, 16), (0, 24), (0, 32), (8, 16), (8, 24),
                         (8, 32), (16, 24), (16, 32), (24, 32)]


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def small_bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    code = run_cli("--out", str(out), "--duration", "1.0", "--seed", "5",
                   "--links", "figures", "--emit", "all")
    assert code == 0
    return out


class TestCliRun:
    def test_bundle_contents(self, small_bundle_dir):
        names = {p.name for p in small_bundle_dir.iterdir()}
        assert names == {"plan.csv", "links.csv", "histograms.csv",
                         "keyrates.json", "run-metadata.json", "timing.json",
                         "fig3a.csv", "fig3b.csv", "fig4a.csv", "fig4b.csv"}
        hists = helpers.read_histograms_csv(small_bundle_dir / "histograms.csv")
        assert len(hists) == 42

    def test_help_names_histogram_columns(self):
        """The help's histograms.csv columns are the writer's header."""
        epilog = " ".join(cli.build_parser().epilog.split())
        assert ",".join(report.HISTOGRAMS_CSV_HEADER) in epilog

    def test_file_count_does_not_grow_with_links(self, tmp_path):
        """All 780 links and the 42 figure links give the same six files."""
        names = {}
        for links in ("all", "figures"):
            out = tmp_path / links
            assert run_cli("--out", str(out), "--duration", "0.01",
                           "--links", links) == 0
            names[links] = sorted(str(p.relative_to(out))
                                  for p in out.rglob("*"))
        assert names["all"] == names["figures"] == [
            "histograms.csv", "keyrates.json", "links.csv", "plan.csv",
            "run-metadata.json", "timing.json"]

    def test_repeated_link_listed_once(self, tmp_path):
        """0-1 and 1-0 are one link: one row, one entry, at its first place."""
        out = tmp_path / "o"
        assert run_cli("--out", str(out), "--duration", "0.05",
                       "--links", "0-1,1-0,0-8") == 0
        with open(out / "links.csv", newline="") as fh:
            rows = [(r["user_a"], r["user_b"]) for r in csv.DictReader(fh)]
        assert rows == [("0", "1"), ("0", "8")]
        payload = json.loads((out / "keyrates.json").read_text())
        assert [(e["user_a"], e["user_b"]) for e in payload["links"]] == [
            (0, 1), (0, 8)]
        meta = json.loads((out / "run-metadata.json").read_text())
        assert meta["n_links"] == 2
        assert list(helpers.read_histograms_csv(out / "histograms.csv")) == [
            (0, 1), (0, 8)]

    def test_zero_duration_bundle(self, tmp_path):
        """A 0 s run has no tags: no key report, and an empty histogram's
        CAR is nan."""
        out = tmp_path / "o"
        assert run_cli("--out", str(out), "--duration", "0",
                       "--links", "0-1") == 0
        assert json.loads((out / "keyrates.json").read_text())["links"] == []
        with open(out / "links.csv", newline="") as fh:
            rows = [(r["user_a"], r["user_b"], r["coincidences"], r["car"])
                    for r in csv.DictReader(fh)]
        assert rows == [("0", "1", "0", "nan")]

    def test_low_symbol_warnings_summarised(self, tmp_path, capsys):
        """One stderr line counts the links whose mutual information is a
        low-sample estimate, in place of one warning per link."""
        cfg = with_overrides(default_config(), seed=5, duration_s=0.05,
                             links="figures")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_bundle(cfg)
        n_low = sum(1 for w in caught if "symbol pairs" in str(w.message))
        assert n_low > 1
        assert run_cli("--out", str(tmp_path / "o"), "--duration", "0.05",
                       "--seed", "5", "--links", "figures") == 0
        out, err = capsys.readouterr()
        assert out.count("\n") == 1 and out.startswith("entnetsim: wrote 6 files")
        assert err.splitlines() == [
            f"entnetsim: warning: {n_low} links have fewer sifted symbol pairs"
            " than their joint symbol histogram has cells; their mutual"
            " information is a biased plug-in estimate"]

    def test_links_csv_rows(self, small_bundle_dir):
        with open(small_bundle_dir / "links.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 42
        kinds = {r["kind"] for r in rows}
        assert kinds == {"intra", "inter"}

    def test_keyrates_json(self, small_bundle_dir):
        payload = json.loads((small_bundle_dir / "keyrates.json").read_text())
        assert len(payload["links"]) == 42
        entry = payload["links"][0]
        for field in ("user_a", "user_b", "kind", "resource_id",
                      "sifted_rate_sym_s", "qber", "mutual_information_bits",
                      "secret_fraction_bits", "secure_rate_bps",
                      "monitor_spread_ps", "discards"):
            assert field in entry

    def test_fig4a_labels(self, small_bundle_dir):
        with open(small_bundle_dir / "fig4a.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 28
        assert [int(r["link"]) for r in rows] == list(range(1, 29))
        assert (rows[0]["user_a"], rows[0]["user_b"]) == ("0", "1")

    def test_fig4b_labels(self, small_bundle_dir):
        with open(small_bundle_dir / "fig4b.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["link"] for r in rows] == ["AB", "AC", "AD", "AE", "BC",
                                             "BD", "BE", "CD", "CE", "DE"]

    def test_fig3a_has_five_subnets(self, small_bundle_dir):
        with open(small_bundle_dir / "fig3a.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["subnet"] for r in rows} == {"A", "B", "C", "D", "E"}

    def test_metadata_fields(self, small_bundle_dir):
        meta = json.loads((small_bundle_dir / "run-metadata.json").read_text())
        assert meta["seed"] == 5
        assert meta["n_links"] == 42
        assert len(meta["config_hash"]) == 64
        assert meta["resolved_config"]["network"]["subnets"] == 5
        assert meta["parameter_provenance"]["losses.awg_db"] == "reference"
        assert meta["parameter_provenance"]["qkd.guard_band_ps"] == "calibration"
        assert meta["cli_overrides"]["run.duration_s"] == 1.0

    def test_wall_time_outside_reproducible_bundle(self, small_bundle_dir):
        meta = json.loads((small_bundle_dir / "run-metadata.json").read_text())
        assert "wall_time" not in json.dumps(meta)
        timing = json.loads((small_bundle_dir / "timing.json").read_text())
        assert timing["wall_time_s"] > 0

    def test_write_times_cover_every_file(self, tmp_path):
        """timing.json holds the write seconds of every other file written,
        dumps included, keyed by its path in the bundle."""
        out = tmp_path / "o"
        assert run_cli("--out", str(out), "--duration", "0.05", "--seed", "3",
                       "--links", "figures", "--emit", "fig4b",
                       "--dump-tags", "--dump-truth") == 0
        files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        assert {"truth.csv", "tags/user8_normal.txt", "fig4b.csv"} <= files
        write_s = json.loads((out / "timing.json").read_text())["write_s"]
        assert set(write_s) == files - {"timing.json"}
        assert all(isinstance(s, float) and s >= 0 for s in write_s.values())


class TestOneResolution:
    """A CLI run builds the plan, the system and the QKD settings, and
    resolves its links, once: in the one ScenarioConfig it makes."""

    @pytest.mark.parametrize("ini", [None, "[run]\nseed = 3\n"])
    def test_cli_run_builds_each_once(self, tmp_path, monkeypatch, ini):
        counts = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (plan_module, config, report, cli):
            for name in ("build_plan", "resolve_links"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counted(name, getattr(module, name)))
        for cls in (SystemConfig, QkdConfig):
            monkeypatch.setattr(cls, "__init__",
                                counted(cls.__name__, cls.__init__))
        args = ["--out", str(tmp_path / "o"), "--duration", "0.02",
                "--links", "figures", "--emit", "fig3a"]
        if ini is not None:
            (tmp_path / "run.ini").write_text(ini)
            args += ["--config", str(tmp_path / "run.ini")]
        assert run_cli(*args) == 0
        assert counts == {"build_plan": 1, "SystemConfig": 1, "QkdConfig": 1,
                          "resolve_links": 1}


class TestCliErrors:
    def test_bad_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[detector]\ndark_rate_hz = -1\n")
        code = run_cli("--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "dark_rate_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("args, ini, field", [
        (("--links", "0-99"), "", "run.links"),
        (("--links", "0-1,40-2"), "", "run.links"),
        (("--seed", "-1"), "", "run.seed"),
        ((), "[run]\nseed = -5\n", "run.seed"),
        ((), "[run]\nlinks = 3-39,39-40\n", "run.links"),
    ])
    def test_bad_run_field_exit_2(self, tmp_path, capsys, args, ini, field):
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        out = tmp_path / "o"
        code = run_cli("--config", str(cfg), "--out", str(out),
                       "--duration", "0.01", *args)
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ini, field", [
        ("[detector]\njitter_ps = nan\n", "detector.jitter_ps"),
        ("[network]\nfiber_km = 0:nan\n", "network.fiber_km"),
        ("[network]\nsubnets = 10\n", "network.subnets"),
        ("[network]\nchannel_min = 30\n", "network.subnets"),
    ])
    def test_unusable_value_exit_2(self, tmp_path, capsys, ini, field):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        out = tmp_path / "o"
        code = run_cli("--config", str(cfg), "--out", str(out),
                       "--duration", "0.01")
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exit_2(self, tmp_path):
        code = run_cli("--config", str(tmp_path / "none.ini"),
                       "--out", str(tmp_path / "o"))
        assert code == 2

    def test_figure_without_links_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(report, "run_scenario", no_simulation)
        out = tmp_path / "o"
        code = run_cli("--out", str(out), "--duration", "0.1",
                       "--links", "default", "--emit", "fig3a")
        assert code == 2
        err = capsys.readouterr().err
        assert "fig3a" in err and "8-9" in err
        assert not out.exists()

    @pytest.mark.parametrize("figure", ["fig4a", "fig4b"])
    def test_key_rate_figure_without_duration_exit_2(self, tmp_path, capsys,
                                                     monkeypatch, figure):
        monkeypatch.setattr(report, "run_scenario", no_simulation)
        out = tmp_path / "o"
        code = run_cli("--out", str(out), "--duration", "0",
                       "--links", "figures", "--emit", figure)
        assert code == 2
        err = capsys.readouterr().err
        assert figure in err and "run.duration_s" in err
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["nan", "inf", "10000"])
    def test_inexact_duration_exit_2(self, tmp_path, capsys, duration):
        out = tmp_path / "o"
        code = run_cli("--out", str(out), "--duration", duration)
        assert code == 2
        assert "run.duration_s" in capsys.readouterr().err
        assert not out.exists()

    def test_run_too_big_for_memory_exit_2(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(report, "physical_memory_bytes", lambda: 10**6)
        monkeypatch.setattr(report, "run_scenario", no_simulation)
        out = tmp_path / "o"
        # 2 users at ~90k tags/s for 1 s: ~4.5 MB of tags against 1 MB
        code = run_cli("--out", str(out), "--duration", "1", "--links", "0-1")
        assert code == 2
        assert "run.duration_s" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_run_too_big_for_memory_exit_2(self, tmp_path, capsys,
                                                 monkeypatch):
        """A run whose tags fit but whose truth log does not is refused,
        and only when it collects the truth log."""
        started = []

        def simulation(*args, collect_truth, **kwargs):
            started.append(collect_truth)
            raise RuntimeError("stopped after the memory guard")

        cfg = default_config()
        plan, sys_cfg = cfg.network_plan(), cfg.system()
        tags = sum(expected_singles_rate(plan, sys_cfg, u) for u in (0, 1))
        have = tags * (report.BYTES_PER_TAG + report.BYTES_PER_TRUTH_TAG) / 2
        monkeypatch.setattr(report, "physical_memory_bytes", lambda: have)
        monkeypatch.setattr(report, "run_scenario", simulation)
        args = ("--duration", "1", "--links", "0-1")
        run_cli("--out", str(tmp_path / "plain"), *args)
        assert started == [False]
        capsys.readouterr()
        out = tmp_path / "truth"
        code = run_cli("--out", str(out), *args, "--dump-truth")
        assert code == 2
        assert started == [False]
        assert "run.duration_s" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_estimate(self, monkeypatch):
        """Only the estimate is computed here: no run is started."""
        monkeypatch.setattr(report, "physical_memory_bytes", lambda: 7 * 2**30)
        with pytest.raises(ConfigError, match="run.duration_s"):
            check_memory(with_overrides(default_config(), links="0-1",
                                        duration_s=9007.19))
        for links, duration in (("figures", 1.5), ("all", 0.2),
                                ("figures", 0.25), ("default", 60.0)):
            check_memory(with_overrides(default_config(), links=links,
                                        duration_s=duration))

    def test_unwritable_out_exit_3(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = run_cli("--out", str(blocker / "sub"), "--duration", "0.05")
        assert code == 3


class TestDumps:
    def test_tag_dump_format(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("--out", str(out), "--duration", "0.2", "--seed", "3",
                       "--links", "0-1", "--dump-tags", "--dump-truth")
        assert code == 0
        tag_files = sorted((out / "tags").glob("*.txt"))
        assert [p.name for p in tag_files] == [
            "user0_anomalous.txt", "user0_normal.txt",
            "user1_anomalous.txt", "user1_normal.txt"]
        lines = tag_files[1].read_text().splitlines()
        assert lines[0] == "0,normal,200000000000,3"
        assert all(l.isdigit() for l in lines[1:])
        assert [int(l) for l in lines[1:]] == sorted(int(l) for l in lines[1:])

    def test_truth_dump_format(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("--out", str(out), "--duration", "0.1", "--seed", "3",
                       "--links", "0-1", "--dump-truth")
        assert code == 0
        with open(out / "truth.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "truth log should not be empty"
        assert set(rows[0]) == {"pair_id", "resource_id", "t_emit_ps",
                                "signal_user", "idler_user",
                                "signal_detected", "idler_detected"}


class TestReproducibility:
    # sha256 of each bundle file of one short run but run-metadata.json
    # and timing.json: `--links figures --duration 0.05 --seed 42 --emit
    # all --dump-tags --dump-truth`, default physics
    BUNDLE_PINS = {
        "links.csv":
            "fda61205b9b597d9b0240032ffc21bb006c81e5d7409c99a023826a64f71f485",
        "histograms.csv":
            "c3dbf94278d11041e8c8006614237a466c2e933512eff23cb130d77cbf5e9074",
        "keyrates.json":
            "40dc9e35db159ec2b3eb974e61db8cedfe93bc1f27d00e60e31f176a2f680647",
        "fig3a.csv":
            "f138fd1b22a90bbbf4e943b52fc27a6ca9e1852fa5c5c3bc7d323616668b5ccf",
        "fig3b.csv":
            "f149d6657a23fd0b58d45c02f0a0d410d06f0bc85cfa3954cfb36d2525ccd868",
        "fig4a.csv":
            "1cd501d297968997cd689dc9ffe031ebb5539715622623a47583c014770cb383",
        "fig4b.csv":
            "d8185fdff94bd2cb0e1ca4484bd2aeb235f0a297a73a88dbc2b5f85300dbb005",
        "plan.csv":
            "328ebfebc319f8d258eb27f78f08e256d2b3990e317d38c7b51eb64c0d8644f8",
        "truth.csv":
            "2121a8b5f158d597d25a418a3fc90fda4a6ce98a2fc9a971eb64aa00e609553b",
        "tags/user0_anomalous.txt":
            "da2aaf5b8ab689f46e754d1e470dc755add5107fa175fd436ce1381a0e27b860",
        "tags/user0_normal.txt":
            "766ef9c87e7ed0f1e5c6a55f7e497d24634c02d08c9edd1689ad32674e1d5621",
        "tags/user16_anomalous.txt":
            "8c3ea5caef691d3128e217d98e82269691a973a5b92d958e25489fd46b7d3fc1",
        "tags/user16_normal.txt":
            "0945e8f13f61b751e474c1c81013b37af118d9ef5faab57f6c0a44d7d6e01870",
        "tags/user17_anomalous.txt":
            "f453d163bfd2cfc30e58c620bbf5f7c9eaba5c659d5e297b12e6d4fbf9400d0f",
        "tags/user17_normal.txt":
            "7a4ca64f23bff44f51ff3da7c2946e39f2edc5848996b229ef9f35258a3db9a5",
        "tags/user1_anomalous.txt":
            "5d154d81fb46bdab0e7ca5ab9d87466cf9af88dde8c747330465dea34998e763",
        "tags/user1_normal.txt":
            "5fb2255dd8897306ed3239d68e61fc97d85d3c308c3fed4eaa0a84cb83a1585f",
        "tags/user24_anomalous.txt":
            "6dab42e52aafee676a6d80783482b24a925da58b7bab7796e16c5274555c2a6f",
        "tags/user24_normal.txt":
            "98468a210b84810d78b5cda03549bdaf492e94559666233dacfe81fdb60b203c",
        "tags/user25_anomalous.txt":
            "f320762ed9fe289aa6087665c860f290817270616850f2db4a6da0a4755edf26",
        "tags/user25_normal.txt":
            "f2287ce11ca06627860d8ebb0866a18069b99b469c724d5cf2511e2dd064979f",
        "tags/user2_anomalous.txt":
            "6a22b97af9432f1f39f5163484612f49988a3ff1d0dbe348481e04a408cee05c",
        "tags/user2_normal.txt":
            "6a51a09e5825a96affc3e331395c509393e97846cb274d95c885b0c1e0ecf8f8",
        "tags/user32_anomalous.txt":
            "38ad4fb77166254bed1f448c773be01818ccba45921183c79464d741b08249a1",
        "tags/user32_normal.txt":
            "60b973af784d5e0ef3eae93eb0b83d0314b01cf7ba235a518d5dafdaadd0d5b8",
        "tags/user33_anomalous.txt":
            "8d88a7d30f4b1c2a8e1aba423409ad108deb9b69dc946ea5f48e12c458dabc58",
        "tags/user33_normal.txt":
            "b7b82e669705a88ad073e7e8df5edbf371dbc075fad61d5fc55371a09f4d1c28",
        "tags/user3_anomalous.txt":
            "a00d2b2a8296266f499b153c3c061b4fde05d314c7b3e15617368a06dcefb2b0",
        "tags/user3_normal.txt":
            "40e38f7c6b7bf1f6e8ab33b67641c893f26187d0f4d7eb20f6b14a7f0fccf9c5",
        "tags/user4_anomalous.txt":
            "1f1c5eb6001d39a731a19e88f1b43464ecc60cb00c150f3c2e11fd785b3794a0",
        "tags/user4_normal.txt":
            "7f0ed53ff46997cb0b56b7242e7727ece01d79ea5650fb7155c4e224ed605c91",
        "tags/user5_anomalous.txt":
            "faf8b66f3f6767ab9ac6070987d73d2e0009dba94e7a1fb608716624ff510aa9",
        "tags/user5_normal.txt":
            "2b7a674a59721212b0dfa0e756979bd3f05688c453c4bb905ece7d8d0460c3c8",
        "tags/user6_anomalous.txt":
            "52d1d84be78616de68eaa820deffd5e080d98f26c69dce0c5b04dfb7c1734d34",
        "tags/user6_normal.txt":
            "e15f1f8d4b2998b13f30b7c3c707d9eee94a3c36f191fdaff6762f7a02bd480b",
        "tags/user7_anomalous.txt":
            "5b835ac551d620ab604449005f65a983cdb6baf8d2698157970b847c24f04660",
        "tags/user7_normal.txt":
            "bee16dba439bd081fbd6bc0b1ab3da6dccfb9af131f9cdb3ad276b7284f9ffd8",
        "tags/user8_anomalous.txt":
            "8021ececd366234fcb9e5963f5569a2791bd2b255698dd59a4a2cb2c6e444f6f",
        "tags/user8_normal.txt":
            "f515ae8e8d090b2de4ce33b5148b0f5bc61d7dda43bf29269a9e6eeef7980a85",
        "tags/user9_anomalous.txt":
            "8a974f075111afef4980001021f954d8447b2390bfab67103f61a9ae3bccf4e6",
        "tags/user9_normal.txt":
            "f7638420931fadd30d1407703fb0c807f9592d5c021a62ee4d637880b0d32f50",
    }

    def test_bundle_bytes_pinned(self, tmp_path):
        """The bundle's bytes: plan, links, histograms, key rates, the
        four figure tables, the truth log and every tag dump of one short
        run."""
        out = tmp_path / "o"
        assert run_cli("--out", str(out), "--links", "figures", "--duration",
                       "0.05", "--seed", "42", "--emit", "all",
                       "--dump-tags", "--dump-truth") == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.BUNDLE_PINS}
        assert digests == self.BUNDLE_PINS
        dumped = {f"tags/{p.name}" for p in (out / "tags").iterdir()}
        assert dumped == {n for n in self.BUNDLE_PINS if n.startswith("tags/")}

    def test_same_seed_byte_identical_bundles(self, tmp_path):
        env = dict(os.environ)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "entnetsim.cli", "--out", str(out),
                 "--duration", "0.5", "--seed", "11", "--links", "default"],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        compare_bundles(*outs)

    def test_metadata_round_trip_reproduces_bundle(self, tmp_path):
        out1 = tmp_path / "first"
        assert run_cli("--out", str(out1), "--duration", "0.3", "--seed", "21",
                       "--links", "0-1,0-8") == 0
        meta = json.loads((out1 / "run-metadata.json").read_text())
        values = {}
        for section, body in meta["resolved_config"].items():
            values[section] = {}
            for key, val in body.items():
                if SCHEMA[section][key][0] == "usermap":
                    val = tuple((int(u), float(km)) for u, km in val.items())
                values[section][key] = val
        cfg = ScenarioConfig(values=values)
        assert cfg.config_hash() == meta["config_hash"]
        bundle = run_bundle(cfg)
        out2 = tmp_path / "second"
        write_bundle(bundle, str(out2), wall_time_s=0.0,
                     overrides=meta["cli_overrides"])
        compare_files(out1 / "links.csv", out2 / "links.csv")
        compare_files(out1 / "histograms.csv", out2 / "histograms.csv")
        compare_files(out1 / "keyrates.json", out2 / "keyrates.json")


def compare_files(p1: Path, p2: Path):
    assert p1.read_bytes() == p2.read_bytes(), f"{p1.name} differs"


def compare_bundles(d1: Path, d2: Path):
    files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        if rel.name == "timing.json":
            continue  # wall time, documented non-reproducible
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), \
            f"{rel} differs between runs"


class TestAnalysisWorkers:
    """The candidate sweep and the per-link analysis split across forked
    workers (sim.fork_map) give the bundle, the warnings and the errors
    of one process."""

    RUNS = {
        "all": ("--links", "all", "--duration", "0.02"),
        "figures": ("--links", "figures", "--duration", "0.05", "--emit",
                    "all", "--dump-tags", "--dump-truth"),
    }

    @staticmethod
    def run(monkeypatch, out, args, workers):
        """One CLI run on `workers` processes; returns the forks made."""
        forks = []
        fork = sim._fork
        monkeypatch.setattr(sim, "_fork",
                            lambda work: forks.append(work) or fork(work))
        monkeypatch.setattr(sim, "_workers", lambda: workers)
        assert run_cli("--out", str(out), *args) == 0
        return forks

    @pytest.mark.parametrize("name", list(RUNS))
    def test_bundles_identical_for_any_worker_count(self, tmp_path,
                                                    monkeypatch, name):
        # slabs of 16384 core tags: the sweep splits too
        monkeypatch.setattr(analysis, "POOL_TAGS", 1 << 14)
        for workers in (1, 2, 3):
            forks = self.run(monkeypatch, tmp_path / str(workers),
                             self.RUNS[name], workers)
            # pass 2, the sweep and the per-link analysis
            assert len(forks) == 3 * (workers - 1)
            compare_bundles(tmp_path / "1", tmp_path / str(workers))
        _assert_no_child()

    def test_stderr_identical_for_any_worker_count(self, tmp_path,
                                                   monkeypatch, capsys):
        err = {}
        for workers in (1, 2):
            self.run(monkeypatch, tmp_path / str(workers), self.RUNS["all"],
                     workers)
            err[workers] = capsys.readouterr().err
        assert "links have fewer sifted symbol pairs" in err[1]
        assert err[1] == err[2]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_error_filter_raises_and_reaps(self, monkeypatch, workers):
        monkeypatch.setattr(sim, "_workers", lambda: workers)
        cfg = with_overrides(default_config(), duration_s=0.02, links="all")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="symbol pairs"):
                run_bundle(cfg)
        _assert_no_child()

    @pytest.mark.parametrize("where", ["worker", "here"])
    def test_failing_link_is_named_and_reaped(self, monkeypatch, where):
        """A per-link worker that fails is named with its links; a failure
        in this process's own links is raised as it is. Either way no
        worker is left."""
        monkeypatch.setattr(sim, "_workers", lambda: 3)
        parent = os.getpid()
        analyze = report.analyze_link

        def failing(*args, **kwargs):
            if (os.getpid() == parent) == (where == "here"):
                raise ValueError("injected link failure")
            return analyze(*args, **kwargs)

        monkeypatch.setattr(report, "analyze_link", failing)
        cfg = with_overrides(default_config(), duration_s=0.02, links="all")
        if where == "here":
            with pytest.raises(ValueError, match="injected link failure"):
                run_bundle(cfg)
        else:
            with pytest.raises(RuntimeError, match=r"^per-link worker 1 of 2"
                               r" \(links \d+-\d+ to \d+-\d+, pid \d+\)"
                               r" exited with status 1:") as err:
                run_bundle(cfg)
            assert "injected link failure" in str(err.value)
        _assert_no_child()


class TestFigureEmission:
    def test_unknown_figure_rejected(self, reference_plan):
        cfg = with_overrides(default_config(), duration_s=0.05, links="0-1")
        bundle = run_bundle(cfg)
        with pytest.raises(FigureDataError):
            emit_figure_data(bundle, "fig9z")

    def test_write_bundle_checks_figures_first(self, tmp_path):
        cfg = with_overrides(default_config(), duration_s=0.05, links="0-1")
        bundle = run_bundle(cfg)
        out = tmp_path / "o"
        with pytest.raises(FigureDataError, match="fig4a needs links"):
            write_bundle(bundle, str(out), wall_time_s=0.0, figures=["fig4a"])
        assert not out.exists()


class TestLinkReport:
    def test_bundle_reads_its_run(self):
        cfg = with_overrides(default_config(), duration_s=0.05,
                             links="0-8,1-0")
        bundle = run_bundle(cfg)
        assert bundle.plan is cfg.network_plan()
        assert bundle.links == cfg.selected_links == ((0, 8), (0, 1))

    def test_lookup_and_missing_link(self):
        cfg = with_overrides(default_config(), duration_s=0.05,
                             links="0-1,0-8")
        bundle = run_bundle(cfg)
        assert list(bundle.records) == [(0, 1), (0, 8)]
        assert list(bundle.key_reports) == list(bundle.records)
        for (ua, ub), rec in bundle.records.items():
            assert (rec.user_a, rec.user_b) == (ua, ub)
            assert rec.histogram.singles_a > 0 and rec.key is not None
        with pytest.raises(KeyError):
            bundle.records[(1, 0)]
