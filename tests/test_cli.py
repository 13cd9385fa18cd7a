import json
import math
import shlex
from pathlib import Path

from unittest.mock import patch

import numpy as np
import pytest

from netrad import cli, imaging, synth
from netrad.fusion import fuse_coherent
from netrad.imaging import pair_images
from netrad.scene import load_scenario
from netrad.synth import suggest_window
from netrad.wavenumber import coverage_region

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_image_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows  # columns x, y, re, im


class TestCoverage:
    def test_single_terminal_resolution(self, tmp_path):
        code = run_cli(
            ["coverage", "--scenario", SCENARIOS / "lane_single_terminal.json",
             "--out", tmp_path]
        )
        assert code == 0
        doc = json.loads((tmp_path / "resolution.json").read_text())
        # hull extents give 0.30 m in both range and cross-range
        assert doc["rho_y_m"] == pytest.approx(0.30, rel=0.01)
        assert doc["rho_x_m"] == pytest.approx(0.30, rel=0.01)
        assert (tmp_path / "coverage.csv").exists()
        assert (tmp_path / "hull.csv").exists()

    def test_set_override_changes_bandwidth(self, tmp_path):
        code = run_cli(
            ["coverage", "--scenario", SCENARIOS / "lane_single_terminal.json",
             "--out", tmp_path, "--set", "bandwidth_hz=100e6"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "resolution.json").read_text())
        # c/2B = 1.5 m; the 0.71 m receive aperture adds ~2% of k_y extent
        assert doc["rho_y_m"] == pytest.approx(1.5, rel=0.03)

    def test_idempotent_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                ["coverage", "--scenario", SCENARIOS / "lane_single_terminal.json",
                 "--out", out]
            ) == 0
        for name in ("coverage.csv", "hull.csv", "resolution.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_baseband_tiles_match_coverage_region(self, tmp_path):
        path = SCENARIOS / "lane_single_terminal.json"
        assert run_cli(
            ["coverage", "--scenario", path, "--out", tmp_path, "--baseband", "--n-freq", "5"]
        ) == 0
        sc = load_scenario(path.read_text())
        region = coverage_region(sc, sc.targets[0].position, n_freq=5, baseband=True)
        expected = [
            ["-".join(map(str, pair)), f"{kx:.9g}", f"{ky:.9g}", f"{f:.9g}"]
            for pair, samples in zip(region.pairs, region.samples.tolist())
            for (kx, ky), f in zip(samples, region.freqs.tolist())
        ]
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        assert [line.split(",") for line in lines[1:]] == expected


class TestSimulate:
    def test_writes_per_channel_records(self, tmp_path):
        code = run_cli(
            ["simulate", "--scenario", SCENARIOS / "lane_base_100mhz.json",
             "--out", tmp_path, "--set", "seed=3"]
        )
        assert code == 0
        files = sorted((tmp_path / "records").glob("ch_*.csv"))
        assert [f.name for f in files] == ["ch_0-0-0-0.csv"]
        meta = json.loads((tmp_path / "records_meta.json").read_text())
        assert meta["n_records"] == 1

    def test_noise_runs_are_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                ["simulate", "--scenario", SCENARIOS / "lane_base_100mhz.json",
                 "--out", out, "--set", "noise_power=0.5", "--set", "seed=9"]
            ) == 0
        assert (a / "records" / "ch_0-0-0-0.csv").read_bytes() == (
            b / "records" / "ch_0-0-0-0.csv"
        ).read_bytes()


class TestImageAndFuse:
    def test_incoherent_fusion_of_identical_images(self, tmp_path):
        # two colocated single-element terminals produce identical
        # monostatic images; their incoherent average equals either
        # image's magnitude
        doc = {
            "terminals": [
                {"tx_elements": [[0.0, 0.0]], "rx_elements": [[0.0, 0.0]]},
                {"tx_elements": [[0.0, 0.0]], "rx_elements": [[0.0, 0.0]]},
            ],
            "targets": [{"position": [0.0, 20.0]}],
            "f0_hz": 28e9,
            "bandwidth_hz": 500e6,
        }
        scenario = tmp_path / "twin.json"
        scenario.write_text(json.dumps(doc))
        img_dir, fuse_dir = tmp_path / "img", tmp_path / "fuse"
        assert run_cli(["image", "--scenario", scenario, "--out", img_dir,
                        "--grid-spacing", "0.075"]) == 0
        assert run_cli(["fuse", "--mode", "incoherent", "--scenario", scenario,
                        "--out", fuse_dir, "--grid-spacing", "0.075"]) == 0
        single = read_image_csv(img_dir / "image_0-0.csv")
        fused = read_image_csv(fuse_dir / "fused.csv")
        # CSV artifacts carry 9 significant digits
        np.testing.assert_allclose(
            fused[:, 2], np.hypot(single[:, 2], single[:, 3]), rtol=1e-6, atol=1e-12
        )
        assert np.allclose(fused[:, 3], 0.0)

    def test_image_writes_per_pair_artifacts(self, tmp_path):
        assert run_cli(
            ["image", "--scenario", SCENARIOS / "lane_single_terminal.json",
             "--out", tmp_path]
        ) == 0
        assert (tmp_path / "image_0-0.csv").exists()
        assert (tmp_path / "image_0-0.pgm").read_bytes().startswith(b"P5\n")

    def test_fused_metrics_reported(self, tmp_path):
        assert run_cli(
            ["fuse", "--mode", "coherent", "--pairs", "mono",
             "--scenario", SCENARIOS / "lane_single_terminal.json",
             "--out", tmp_path]
        ) == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["rho_y_m"] == pytest.approx(0.30, rel=0.10)
        assert doc["provenance"] == "fused:coh"
        assert doc["n_images_fused"] == 1

    def test_incoherent_default_grid_resolves_single_pairs(self, tmp_path):
        # incoherent fusion adds no coverage: the default grid takes a
        # quarter of the finest single pair's 0.281 m, not the pitch of the
        # 25-pair coherent coverage, which the mainlobe would fill
        assert run_cli(["fuse", "--mode", "incoherent", "--pairs", "mono",
                        "--scenario", SCENARIOS / "lane_multistatic.json",
                        "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert "error" not in doc
        assert doc["rho_y_m"] == pytest.approx(0.30, rel=0.10)
        xs = np.unique(read_image_csv(tmp_path / "fused.csv")[:, 0])
        assert len(xs) == 49
        assert np.diff(xs).mean() == pytest.approx(0.0703, rel=0.01)

    @pytest.mark.parametrize(
        "extra", [[], ["--grid-spacing", "0.05"], ["--mode", "incoherent"]],
        ids=["default-grid", "explicit-grid", "incoherent"],
    )
    def test_mono_flag_matches_diagonal_pairing(self, tmp_path, extra):
        # the bistatic pairs hold the shortest and the longest delays, so a
        # window sized from pairs that are not imaged would show
        doc = {
            "terminals": [
                {"tx_elements": [[0.0, 0.0]], "rx_elements": [[6.0, 0.0], [6.01, 0.0]]},
                {"tx_elements": [[6.0, 0.2]], "rx_elements": [[0.0, 0.2], [0.01, 0.2]]},
            ],
            "targets": [{"position": [0.5, 20.0]}],
            "f0_hz": 28e9,
            "bandwidth_hz": 500e6,
            "pairing": [[1, 1], [1, 1]],
        }
        full, diagonal = tmp_path / "full.json", tmp_path / "diagonal.json"
        full.write_text(json.dumps(doc))
        diagonal.write_text(json.dumps({**doc, "pairing": [[1, 0], [0, 1]]}))
        assert run_cli(["fuse", "--pairs", "mono", "--scenario", full,
                        "--out", tmp_path / "flag", *extra]) == 0
        assert run_cli(["fuse", "--scenario", diagonal, "--out", tmp_path / "matrix", *extra]) == 0
        for name in ("fused.csv", "fused.pgm", "metrics.json"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "matrix" / name).read_bytes()

    def test_explicit_spacing_grid_spans_every_target(self, tmp_path):
        # the grid used to be placed around the first target only
        doc = json.loads((SCENARIOS / "lane_single_terminal.json").read_text())
        doc["targets"] = [{"position": [0.0, 20.0]}, {"position": [1.0, 20.0]}]
        path = tmp_path / "two_targets.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli(["image", "--scenario", path, "--out", out,
                        "--grid-spacing", "0.1", "--grid-margin-cells", "3"]) == 0
        xs = np.unique(read_image_csv(out / "image_0-0.csv")[:, 0])
        np.testing.assert_allclose(xs, np.linspace(-0.3, 1.3, 17), atol=1e-9)

    def test_other_targets_are_not_sidelobes(self, tmp_path):
        # the second target's mainlobe used to be the "sidelobe", at -0.19 dB
        doc = json.loads((SCENARIOS / "lane_single_terminal.json").read_text())
        doc["targets"] = [{"position": [0.0, 20.0]}, {"position": [1.0, 20.0]}]
        path = tmp_path / "two_targets.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli(["fuse", "--scenario", path, "--out", out,
                        "--grid-spacing", "0.1", "--grid-margin-cells", "3"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "error" not in metrics
        assert metrics["pslr_db"] < -10.0

    def test_sync_error_defocuses_instead_of_failing(self, tmp_path):
        # a uniform 15 ns clock error delays every target response; the
        # window must still cover the unsynchronized pixel delays
        doc = json.loads((SCENARIOS / "opposite_side.json").read_text())
        n = len(doc["terminals"])
        doc["sync_errors_s"] = [[15e-9] * n for _ in range(n)]
        path = tmp_path / "sync.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["fuse", "--pairs", "all", "--grid-spacing", "0.075",
                        "--scenario", path, "--out", tmp_path / "out"]) == 0
        assert read_image_csv(tmp_path / "out" / "fused.csv").shape == (49 * 49, 4)

    @pytest.mark.parametrize("spacing", ["0.4", "0.8"])
    def test_coarse_grid_window_covers_its_nearest_edge_pixel(self, tmp_path, spacing):
        # the least pixel delay lies inside the grid's bottom edge; a window
        # bounded by the corners alone left pixel (24,0) outside it (exit 3)
        assert run_cli(["fuse", "--scenario", SCENARIOS / "lane_single_terminal.json",
                        "--grid-spacing", spacing, "--out", tmp_path]) == 0


def imaging_run(args):
    """The pair images of the CLI's imaging pipeline for ``fuse`` with
    ``args``, the scenario it read and the records it synthesized."""
    config = cli._build_parser().parse_args(["fuse", *map(str, args), "--out", "unused"])
    scenario, kept, synthesize = cli._load_scenario(config), [], synth.synthesize

    def keep(*call, **kwargs):
        kept.append(synthesize(*call, **kwargs))
        return kept[-1]

    with patch.object(cli.synth, "synthesize", keep):
        images = cli._imaging_pipeline(config, scenario)
    return images, scenario, kept[0]


def relative_error(a, b):
    return np.abs(a - b).max() / np.abs(a).max()


class TestEnvelopeImaging:
    # max |diff| / peak of the pipeline's upsampled images against
    # pair_images on the same records and grid, fused and worst pair;
    # pinned when the envelope path landed, never to be widened
    @pytest.mark.parametrize("grid_args, size, fused_bound, pair_bound", [
        ([], 49, 2.4e-3, 1.6e-2),
        (["--grid-spacing", "0.008", "--grid-margin-cells", "60"], 121, 3.2e-3, 1.5e-2),
    ], ids=["default-49", "wide-121"])
    def test_lane_images_stay_within_the_pinned_bound(self, grid_args, size, fused_bound, pair_bound):
        images, scenario, records = imaging_run(
            ["--scenario", SCENARIOS / "lane_multistatic.json", *grid_args])
        grid = images[0].grid
        assert grid.size == (size, size)
        assert records[0].t0 <= suggest_window(scenario, grid)[0]  # windowed for the coarse grid
        exact = pair_images(records, scenario, grid)
        assert [im.provenance for im in images] == [im.provenance for im in exact]
        assert relative_error(fuse_coherent(exact).pixels, fuse_coherent(images).pixels) <= fused_bound
        assert max(relative_error(a.pixels, b.pixels) for a, b in zip(exact, images)) <= pair_bound

    # the reference carrier runs through the mean Tx element, so terminals
    # with a half-wave Tx array are pinned on their own landing values
    @pytest.mark.parametrize("n_tx, grid_args, size, fused_bound, pair_bound", [
        (2, [], 49, 2.36e-3, 1.54e-2),
        (2, ["--grid-spacing", "0.008", "--grid-margin-cells", "60"], 121, 3.17e-3, 1.49e-2),
        (4, [], 49, 2.39e-3, 1.49e-2),
        (4, ["--grid-spacing", "0.008", "--grid-margin-cells", "60"], 121, 3.16e-3, 1.502e-2),
    ], ids=["tx2-49", "tx2-121", "tx4-49", "tx4-121"])
    def test_lane_with_tx_arrays_stays_within_the_pinned_bound(
            self, tmp_path, n_tx, grid_args, size, fused_bound, pair_bound):
        doc = json.loads((SCENARIOS / "lane_multistatic.json").read_text())
        half_wave = 3.0e8 / doc["f0_hz"] / 2
        for term in doc["terminals"]:
            x, y = term["phase_center"]
            term["tx_elements"] = [[x + (i - (n_tx - 1) / 2) * half_wave, y] for i in range(n_tx)]
        path = tmp_path / "lane_tx_arrays.json"
        path.write_text(json.dumps(doc))
        images, scenario, records = imaging_run(["--scenario", path, *grid_args])
        grid = images[0].grid
        assert grid.size == (size, size)
        assert imaging.envelope_grid(scenario, grid) is not None
        exact = pair_images(records, scenario, grid)
        assert relative_error(fuse_coherent(exact).pixels, fuse_coherent(images).pixels) <= fused_bound
        assert max(relative_error(a.pixels, b.pixels) for a, b in zip(exact, images)) <= pair_bound

    @pytest.mark.parametrize("name, grid_args", [
        ("lane_multistatic.json", []),
        ("lane_multistatic.json", ["--grid-spacing", "0.008", "--grid-margin-cells", "60"]),
        ("lane_single_terminal.json", []),
        ("lane_single_terminal.json", ["--grid-spacing", "0.4"]),
    ], ids=["lane-49", "lane-121", "single-direct", "single-coarse"])
    def test_windows_it_sizes_need_no_pixel_check(self, name, grid_args):
        # suggest_window sizes and pair_images checks every window with the
        # same reach bound, so the exact per-pixel check never runs
        with patch.object(imaging, "_check_window", side_effect=AssertionError("pixel check ran")) as check:
            imaging_run(["--scenario", SCENARIOS / name, *grid_args])
        check.assert_not_called()

    def test_direct_where_the_coarse_grid_saves_nothing(self):
        # one pair of one terminal: its envelope pitch (rho / 8) is finer
        # than the default grid's (rho / 4), so the pipeline images directly
        images, scenario, records = imaging_run(
            ["--scenario", SCENARIOS / "lane_single_terminal.json"])
        (image,) = images
        assert imaging.envelope_grid(scenario, image.grid) is None
        assert records[0].t0 == suggest_window(scenario, image.grid)[0]
        (exact,) = pair_images(records, scenario, image.grid)
        assert np.array_equal(image.pixels, exact.pixels)

    def test_fused_image_does_not_depend_on_workers(self, tmp_path):
        fused = []
        for workers in (1, 2, 3):
            out = tmp_path / str(workers)
            assert run_cli(["fuse", "--scenario", SCENARIOS / "lane_multistatic.json",
                            "--grid-spacing", "0.008", "--grid-margin-cells", "60",
                            "--workers", workers, "--out", out]) == 0
            fused.append((out / "fused.csv").read_bytes())
        assert fused[0] == fused[1] == fused[2]


class TestOrchestrate:
    def test_plan_quadruples_predicted_resolution(self, tmp_path):
        assert run_cli(
            ["orchestrate", "--L", "4",
             "--scenario", SCENARIOS / "lane_base_100mhz.json",
             "--out", tmp_path, "--grid-spacing", "0.09"]
        ) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        single_rho_y = 3.0e8 / (2 * 100e6)  # broadside single terminal
        assert plan["predicted"]["rho_y_m"] == pytest.approx(
            single_rho_y / 4.0, rel=0.10
        )
        assert len(plan["angles_deg"]) == 4
        assert plan["angles_deg"][0] == pytest.approx(90.0)
        assert (tmp_path / "fused.csv").exists()
        assert (tmp_path / "metrics.json").exists()

    def test_each_axis_is_reported_on_its_own(self, tmp_path):
        # on the default grid x resolves and y does not; one failed axis
        # used to leave metrics.json with the error alone
        out = tmp_path / "run"
        assert run_cli(["orchestrate", "--L", "4",
                        "--scenario", SCENARIOS / "lane_base_100mhz.json", "--out", out]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["rho_x_m"] == pytest.approx(0.0407, abs=1e-4)
        assert doc["rho_y_m"] is None
        assert "along y" in doc["error"]
        assert run_cli(["report", "--out", tmp_path]) == 0
        table = (tmp_path / "metrics_table.csv").read_text().splitlines()
        run, rho_x, rho_y = table[1].split(",")[:3]
        assert run == "run/metrics.json"
        assert float(rho_x) == pytest.approx(0.0407, abs=1e-4)
        assert rho_y == ""

    def test_plan_takes_the_scenario_bandwidth(self, tmp_path):
        assert run_cli(
            ["orchestrate", "--L", "2", "--set", "bandwidth_hz=50e6",
             "--scenario", SCENARIOS / "lane_base_100mhz.json",
             "--out", tmp_path, "--grid-spacing", "0.09"]
        ) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        single_rho_y = 3.0e8 / (2 * 50e6)
        assert plan["predicted"]["rho_y_m"] == pytest.approx(single_rho_y / 2.0, rel=0.10)

    def test_plan_json_keys_are_sorted(self, tmp_path):
        assert run_cli(
            ["orchestrate", "--L", "2", "--scenario", SCENARIOS / "lane_base_100mhz.json",
             "--out", tmp_path, "--grid-spacing", "0.09"]
        ) == 0
        text = (tmp_path / "plan.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestReport:
    def test_aggregates_runs(self, tmp_path):
        for i, mode in enumerate(("coherent", "incoherent")):
            assert run_cli(
                ["fuse", "--mode", mode, "--pairs", "mono",
                 "--scenario", SCENARIOS / "lane_single_terminal.json",
                 "--out", tmp_path / f"run{i}"]
            ) == 0
        assert run_cli(["report", "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_runs"] == 2
        table = (tmp_path / "metrics_table.csv").read_text().splitlines()
        assert table[0].startswith("run,")
        assert len(table) == 3

    def test_skips_metrics_that_are_not_objects(self, tmp_path):
        # valid JSON that is no object used to exit 3 with a half-written table
        for name, text in [("run0", '{"rho_x_m": 0.3, "pslr_db": null}'), ("run1", "[1, 2]"),
                           ("run2", '"text"'), ("run3", "4"), ("run4", "{")]:
            (tmp_path / name).mkdir()
            (tmp_path / name / "metrics.json").write_text(text)
        assert run_cli(["report", "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["n_runs"] == 1
        table = (tmp_path / "metrics_table.csv").read_text().splitlines()
        assert table == ["run,rho_x_m,rho_y_m,pslr_db,islr_db,peak_snr_db",
                         "run0/metrics.json,0.3,,,,"]

    def test_non_numeric_fields_are_empty_cells(self, tmp_path):
        # a text field used to exit 3 after writing only the table header
        (tmp_path / "run0").mkdir()
        (tmp_path / "run0" / "metrics.json").write_text(
            '{"rho_x_m": "abc", "rho_y_m": true, "pslr_db": [1], "islr_db": -3, "peak_snr_db": 2.5}'
        )
        assert run_cli(["report", "--out", tmp_path]) == 0
        table = (tmp_path / "metrics_table.csv").read_text().splitlines()
        assert table == ["run,rho_x_m,rho_y_m,pslr_db,islr_db,peak_snr_db",
                         "run0/metrics.json,,,,-3,2.5"]


class TestFailures:
    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        code = run_cli(["coverage", "--scenario", tmp_path / "nope.json",
                        "--out", tmp_path])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "validation"

    @pytest.mark.parametrize("text, message", [
        ('{"terminals": [', "invalid JSON at line 1, column 16: Expecting value"),
        ("[1, 2]", "top-level document must be an object"),
    ], ids=["invalid-json", "not-an-object"])
    def test_unparsable_scenario_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli(["coverage", "--scenario", path, "--out", tmp_path / "out"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": "validation", "message": f"{path}: {message}"}

    def test_invalid_scenario_reports_violations(self, tmp_path, capsys):
        code = run_cli(
            ["coverage", "--scenario", SCENARIOS / "lane_single_terminal.json",
             "--out", tmp_path, "--set", "bandwidth_hz=0"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "bandwidth must be positive" in err["error"]["violations"]

    def test_bad_set_key_rejected(self, tmp_path, capsys):
        code = run_cli(
            ["coverage", "--scenario", SCENARIOS / "lane_single_terminal.json",
             "--out", tmp_path, "--set", "carrier=1"]
        )
        assert code == 2
        assert "not overridable" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_runtime_failure_exits_3(self, tmp_path, capsys):
        # an output directory that cannot be made fails when the run starts
        out = tmp_path / "taken"
        out.write_text("")
        code = run_cli(["fuse", "--scenario", SCENARIOS / "lane_single_terminal.json", "--out", out])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "runtime"
        assert "exists" in err["error"]["message"]

    @pytest.mark.parametrize("command", ["simulate", "image", "fuse", "orchestrate"])
    @pytest.mark.parametrize("args", [
        ["--fs", "1e8"],
        # 6e8 Hz covers the file's 5e8 Hz but not the bandwidth --set gives
        ["--fs", "6e8", "--set", "bandwidth_hz=1e9"],
    ], ids=["below-file-bandwidth", "below-set-bandwidth"])
    def test_sample_rate_below_bandwidth_exits_2(self, tmp_path, capsys, command, args):
        # used to exit 3 with the simulator's "below complex Nyquist rate"
        code = run_cli([command, "--scenario", SCENARIOS / "lane_single_terminal.json",
                        "--out", tmp_path, *args])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "validation"
        assert err["message"].startswith("--fs must be at least the bandwidth")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_power_exits_2(self, tmp_path, capsys, noise):
        # NaN noise used to give a noiseless image and inf an all-NaN one
        code = run_cli(
            ["image", "--scenario", SCENARIOS / "lane_single_terminal.json",
             "--out", tmp_path, "--set", f"noise_power={noise}"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert any("noise_power" in v for v in err["error"]["violations"])

    @pytest.mark.parametrize("key", ["f0_hz", "bandwidth_hz"])
    def test_non_finite_band_exits_2(self, tmp_path, capsys, key):
        # an infinite carrier used to exit 0 with all-NaN records
        code = run_cli(
            ["simulate", "--scenario", SCENARIOS / "lane_single_terminal.json",
             "--out", tmp_path, "--set", f"{key}=inf"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["violations"] == [f"{key} must be finite, got inf"]

    @pytest.mark.parametrize("args", [
        ["--set", "seed=-1"], ["--set", "seed=nan"], ["--set", "seed=1.5"],
    ])
    def test_bad_seed_exits_2(self, tmp_path, capsys, args):
        # negative and NaN seeds used to exit 3 and 1.5 to run with seed 1
        code = run_cli(["simulate", "--scenario", SCENARIOS / "lane_single_terminal.json",
                        "--out", tmp_path, *args])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "validation"
        assert "seed" in " ".join([err["message"], *err.get("violations", [])])
        assert not (tmp_path / "records").exists()

    def test_non_finite_sync_error_exits_2(self, tmp_path, capsys):
        # used to fail at runtime with "cannot size a window"
        doc = json.loads((SCENARIOS / "lane_single_terminal.json").read_text())
        doc["sync_errors_s"] = [[math.nan]]
        path = tmp_path / "sync_nan.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["image", "--scenario", path, "--out", tmp_path / "out"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert any("sync_errors" in v for v in err["error"]["violations"])

    def test_pairing_entry_not_0_or_1_exits_2(self, tmp_path, capsys):
        # 1.7 used to load as 1 and exit 0
        doc = json.loads((SCENARIOS / "lane_single_terminal.json").read_text())
        doc["pairing"] = [[1.7]]
        path = tmp_path / "pairing.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["coverage", "--scenario", path, "--out", tmp_path / "out"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "validation"
        assert "pairing[0][0]: expected 0 or 1" in err["message"]

    @pytest.mark.parametrize("grid_args", [[], ["--grid-spacing", "0.1"]])
    def test_fuse_without_targets_exits_2(self, tmp_path, capsys, grid_args):
        doc = json.loads((SCENARIOS / "lane_single_terminal.json").read_text())
        doc["targets"] = []
        path = tmp_path / "no_targets.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["fuse", "--scenario", path, "--out", tmp_path / "out", *grid_args])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "no targets" in err["error"]["message"]

    @pytest.mark.parametrize("command, option, value", [
        ("fuse", "--grid-spacing", "0"),
        ("fuse", "--grid-spacing", "nan"),
        ("fuse", "--grid-spacing", "inf"),
        ("fuse", "--grid-margin-cells", "-2"),
        ("fuse", "--fs", "0"),
        ("fuse", "--fs", "nan"),
        ("fuse", "--dyn-range", "-10"),
        ("fuse", "--dyn-range", "0"),
        ("fuse", "--dyn-range", "nan"),
        ("fuse", "--workers", "0"),
        ("fuse", "--workers", "-3"),
        ("coverage", "--n-freq", "1"),
        ("orchestrate", "--L", "0"),
        ("orchestrate", "--psi0-deg", "nan"),
    ])
    def test_out_of_range_option_exits_2(self, tmp_path, capsys, command, option, value):
        # each used to exit 3 with a library message, or 0 with garbage
        out = tmp_path / "out"
        code = run_cli([command, "--scenario", SCENARIOS / "lane_single_terminal.json",
                        "--out", out, option, value])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "validation"
        assert err["error"]["message"].startswith(f"{option} must be a finite number")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["orchestrate", "--B", "100e6"], ["coverage", "--workers", "2"],
        ["simulate", "--dyn-range", "30"], ["report", "--scenario", "x"],
    ], ids=lambda args: "-".join(args[:2]))
    def test_option_the_subcommand_ignores_is_rejected(self, tmp_path, capsys, args):
        # each used to be accepted and ignored; --B duplicated --set bandwidth_hz
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, "--out", tmp_path])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(args[1:])}" in capsys.readouterr().err

    def test_report_without_metrics_exits_2(self, tmp_path, capsys):
        code = run_cli(["report", "--out", tmp_path])
        assert code == 2
        capsys.readouterr()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
        assert run_cli(
            ["coverage", "--scenario", SCENARIOS / "lane_single_terminal.json"]
        ) == 0
        assert (tmp_path / "envout" / "resolution.json").exists()


class TestDocumentedCommandLines:
    ROOT = SCENARIOS.parent

    def test_every_documented_command_line_parses(self):
        lines = [line for name in ("README.md", "scripts/golden_runs.sh")
                 for line in (self.ROOT / name).read_text().splitlines()
                 if line.startswith("netrad ")]
        commands = [cli._build_parser().parse_args(shlex.split(line)[1:]).subcommand
                    for line in lines]
        assert set(commands) == set(cli._COMMANDS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_formats(self, capsys, command):
        # argparse formats the %(default) of help texts only when it prints them
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: netrad {command}")
