"""Configuration parsing, CLI behavior, bundle outputs, reproducibility."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from entnetsim.cli import main
from entnetsim.config import (ConfigError, ScenarioConfig, default_config,
                              parse_config, parse_config_text, provenance,
                              with_overrides, SCHEMA)
from entnetsim import report
from entnetsim.rates import expected_singles_rate
from entnetsim.report import (FigureDataError, check_memory, emit_figure_data,
                              resolve_links, run_bundle, write_bundle)

import helpers


class TestParseConfig:
    def test_empty_text_is_all_defaults(self):
        assert parse_config_text("").values == default_config().values

    def test_empty_file_is_all_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert parse_config(path).values == default_config().values

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

    def test_fiber_map_parsing(self):
        cfg = parse_config_text("[network]\nfiber_km = 0:1.5, 5:0.25\n")
        assert cfg.system().losses.fiber_km == {0: 1.5, 5: 0.25}

    def test_guard_band_vs_bin_width(self):
        with pytest.raises(ConfigError, match="qkd.guard_band_ps"):
            parse_config_text("[qkd]\nguard_band_ps = 64\n")

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


class TestResolveLinks:
    def test_named_sets(self, reference_plan):
        assert len(resolve_links(reference_plan, "default")) == 38
        assert len(resolve_links(reference_plan, "fig4")) == 38
        assert len(resolve_links(reference_plan, "fig3")) == 15
        assert len(resolve_links(reference_plan, "figures")) == 42
        assert len(resolve_links(reference_plan, "all")) == 780

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


class TestCliErrors:
    def test_bad_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[detector]\ndark_rate_hz = -1\n")
        code = run_cli("--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "dark_rate_hz" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        code = run_cli("--config", str(tmp_path / "none.ini"),
                       "--out", str(tmp_path / "o"))
        assert code == 2

    def test_figure_without_links_exit_2(self, tmp_path, capsys):
        code = run_cli("--out", str(tmp_path / "o"), "--duration", "0.1",
                       "--links", "default", "--emit", "fig3a")
        assert code == 2
        err = capsys.readouterr().err
        assert "fig3a" in err and "8-9" in err

    @pytest.mark.parametrize("duration", ["nan", "inf", "10000"])
    def test_inexact_duration_exit_2(self, tmp_path, capsys, duration):
        out = tmp_path / "o"
        code = run_cli("--out", str(out), "--duration", duration)
        assert code == 2
        assert "run.duration_s" in capsys.readouterr().err
        assert not out.exists()

    def test_run_too_big_for_memory_exit_2(self, tmp_path, capsys,
                                           monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a run that does not fit")

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

    def test_memory_estimate(self, reference_plan, monkeypatch):
        """Only the estimate is computed here: no run is started."""
        monkeypatch.setattr(report, "physical_memory_bytes", lambda: 7 * 2**30)
        sys_cfg = default_config().system()
        with pytest.raises(ConfigError, match="run.duration_s"):
            check_memory(reference_plan, sys_cfg, [0, 1], 9007.19)
        for links, duration in (("figures", 1.5), ("all", 0.2),
                                ("figures", 0.25), ("default", 60.0)):
            users = {u for link in resolve_links(reference_plan, links)
                     for u in link}
            check_memory(reference_plan, sys_cfg, sorted(users), duration)

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


class TestFigureEmission:
    def test_unknown_figure_rejected(self, reference_plan):
        cfg = with_overrides(default_config(), duration_s=0.05, links="0-1")
        bundle = run_bundle(cfg)
        with pytest.raises(FigureDataError):
            emit_figure_data(bundle, "fig9z")


class TestLinkReport:
    def test_lookup_and_missing_link(self):
        cfg = with_overrides(default_config(), duration_s=0.05,
                             links="0-1,0-8")
        bundle = run_bundle(cfg)
        assert len(bundle.link_reports) == 2
        for rep in bundle.link_reports:
            assert bundle.link_report(rep.user_a, rep.user_b) is rep
        with pytest.raises(KeyError, match="link 1-0 not in bundle"):
            bundle.link_report(1, 0)
