"""End-to-end tests of the experiment harness (tiny preset) and CLI."""

import hashlib
import math

import pytest

from repro.experiments import artifacts, harness
from repro.experiments.configs import PRESETS, get_preset
from repro.experiments.figure8 import run_figure8
from repro.experiments.harness import (
    ALGORITHMS,
    PAPER_ALGORITHMS,
    build_routings,
    make_topology,
    make_tree,
)
from repro.experiments.report import (
    render_all_tables,
    render_figure8_summary,
    render_paper_table,
    winners,
)
from repro.experiments.tables import run_static_tables, run_tables
from repro.experiments.__main__ import main as cli_main


@pytest.fixture(scope="module")
def tiny():
    return get_preset("tiny")


class TestPresets:
    def test_paper_preset_matches_section5(self):
        p = get_preset("paper")
        assert p.n_switches == 128
        assert p.ports == (4, 8)
        assert p.samples == 10
        assert p.packet_length == 128

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            get_preset("nope")

    def test_rates_scaled_for_8port(self, tiny):
        assert tiny.rates_for(8) == tuple(
            r * tiny.rate_scale_8port for r in tiny.rates
        )

    def test_scaled_override(self, tiny):
        assert tiny.scaled(samples=5).samples == 5

    def test_all_presets_build_sim_config(self):
        for p in PRESETS.values():
            cfg = p.sim_config(seed=1)
            assert cfg.packet_length == p.packet_length


class TestHarness:
    def test_topologies_deterministic(self, tiny):
        assert make_topology(tiny, 4, 0) == make_topology(tiny, 4, 0)
        assert make_topology(tiny, 4, 0) != make_topology(tiny, 4, 1)

    def test_trees_shared_across_algorithms(self, tiny):
        topo = make_topology(tiny, 4, 0)
        routings = build_routings(topo, tiny, 0)
        trees = {
            method: tree for (_alg, method), (_r, tree) in routings.items()
        }
        for (alg, method), (_r, tree) in routings.items():
            assert tree is trees[method]

    def test_all_registered_algorithms_build(self, tiny):
        topo = make_topology(tiny, 4, 0)
        tree = make_tree(topo, "M1", tiny, 0)
        for name, builder in ALGORITHMS.items():
            r = builder(topo, tree=tree, rng=1)
            assert r.topology is topo

    def test_m2_tree_deterministic(self, tiny):
        topo = make_topology(tiny, 4, 0)
        a = make_tree(topo, "M2", tiny, 0)
        b = make_tree(topo, "M2", tiny, 0)
        assert a.x == b.x


class TestFigure8:
    def test_tiny_run(self, tiny):
        res = run_figure8(tiny, ports=4, methods=("M1",))
        assert set(res.series) == {f"{a}/M1" for a in PAPER_ALGORITHMS}
        for pts in res.series.values():
            assert len(pts) == len(tiny.rates)
            assert all(x > 0 for x, _ in pts)
        assert res.raw

    def test_artifacts_written(self, tiny, tmp_path):
        res = run_figure8(tiny, ports=4, methods=("M1",), out_dir=tmp_path)
        assert (tmp_path / "figure8_4port.csv").exists()
        assert (tmp_path / "figure8_4port.txt").exists()
        assert "accepted" in res.to_csv().splitlines()[0]

    def test_ascii_plot_renders(self, tiny):
        res = run_figure8(tiny, ports=4, methods=("M1",))
        art = res.to_ascii()
        assert "Figure 8" in art
        summary = render_figure8_summary(res)
        assert "saturation throughput" in summary


class TestSingleExecutionPath:
    """Figure 8 and Tables run one work-unit path at every worker count."""

    #: SHA-256 of the tiny-preset artefacts (all methods, one worker, no
    #: ledger, no store), recorded before the serial sweeps were unified
    FIGURE8_4PORT_SHA256 = (
        "74bf3366368bbff991ef608437b0fc9fdff1c9946c5b9c0e54fb2a76090cf714"
    )
    TABLES_SIMULATED_SHA256 = (
        "47fa0bb4970bbc854a6f04311be10992ffcee0afe7967bc6a2212ce3a57d9c26"
    )

    def test_serial_artefact_bytes_pinned(self, tiny, tmp_path):
        run_figure8(tiny, ports=4, out_dir=tmp_path, workers=1)
        run_tables(tiny, out_dir=tmp_path, workers=1)
        digest = lambda name: hashlib.sha256(
            (tmp_path / name).read_bytes()
        ).hexdigest()
        assert digest("figure8_4port.csv") == self.FIGURE8_4PORT_SHA256
        assert digest("tables_simulated.csv") == self.TABLES_SIMULATED_SHA256

    def test_serial_figure8_honours_unit_timeout(self, tiny):
        res = run_figure8(
            tiny, ports=4, methods=("M1",), unit_timeout=0.001, retries=0
        )
        assert len(res.failures) == len(PAPER_ALGORITHMS) * len(tiny.rates)
        assert res.raw == []
        assert all(pts == [] for pts in res.series.values())

    def test_serial_tables_honour_unit_timeout(self, tiny):
        res = run_tables(tiny, methods=("M1",), unit_timeout=0.001, retries=0)
        assert len(res.failures) == len(PAPER_ALGORITHMS) * len(tiny.ports)
        assert res.raw == [] and res.values == {}

    def test_storeless_run_builds_each_routing_once(self, tiny, monkeypatch):
        """Without a store the stage still builds each (sample, method)
        routing once, not once per offered load."""
        calls = []
        build = harness.build_down_up_routing

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(harness, "build_down_up_routing", counting)
        # start unbound, and drop the run's in-process cache afterwards
        monkeypatch.setattr(artifacts, "_PROCESS_CACHE", None)
        preset = tiny.scaled(samples=2)
        methods = ("M1", "M2")
        res = run_figure8(preset, ports=4, methods=methods, workers=1)
        assert len(tiny.rates) > 1 and not res.failures
        assert len(calls) == preset.samples * len(methods)


class TestTables:
    def test_simulated_tables(self, tiny, tmp_path):
        res = run_tables(tiny, methods=("M1",), out_dir=tmp_path)
        for metric in (
            "node_utilization",
            "traffic_load",
            "hot_spot_degree",
            "leaves_utilization",
        ):
            v = res.value(metric, "down-up", "M1", 4)
            assert math.isfinite(v)
        assert res.throughput[("down-up", "M1", 4)] > 0
        assert (tmp_path / "tables_simulated.csv").exists()

    def test_static_tables(self, tiny):
        res = run_static_tables(tiny, methods=("M1", "M2"))
        assert res.kind == "static"
        assert res.value("hot_spot_degree", "l-turn", "M2", 4) >= 0

    def test_render_paper_table(self, tiny):
        res = run_static_tables(tiny, methods=("M1",))
        text = render_paper_table(res, "hot_spot_degree", PAPER_ALGORITHMS, (4,), ("M1",))
        assert "Table 3" in text and "M1" in text

    def test_render_all_and_winners(self, tiny):
        res = run_static_tables(tiny, methods=("M1",))
        text = render_all_tables(res, PAPER_ALGORITHMS, (4,), ("M1",))
        assert text.count("Table") == 4
        win = winners(res, (4,))
        assert set(win) <= set(
            ("node_utilization", "traffic_load", "hot_spot_degree",
             "leaves_utilization")
        )


class TestCli:
    def test_info(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "presets:" in out and "down-up" in out

    def test_erratum(self, capsys):
        assert cli_main(["erratum"]) == 0
        out = capsys.readouterr().out
        assert "DEADLOCK POSSIBLE" in out

    def test_static_tables_cli(self, capsys):
        rc = cli_main(
            ["static-tables", "--preset", "tiny", "--methods", "M1", "--quiet"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "winner[" in out

    def test_figure8_cli(self, capsys, tmp_path):
        rc = cli_main(
            [
                "figure8", "--preset", "tiny", "--ports", "4",
                "--methods", "M1", "--quiet", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert "Figure 8" in capsys.readouterr().out
