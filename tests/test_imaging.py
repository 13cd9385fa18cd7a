import math
import os
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from netrad import imaging
from netrad.scene import (
    AssociationMatrix,
    ImageGrid,
    PointTarget,
    Scenario,
    Terminal,
    Vec2,
    load_scenario,
)
from netrad.imaging import (
    ComplexImage,
    default_grid,
    envelope_grid,
    export_image_csv,
    export_image_pgm,
    pair_images,
    point_spread,
)
from netrad.metrics import compute_metrics
from netrad.synth import Records, bistatic_delay, suggest_window, synthesize
from netrad.wavenumber import coverage_region, predicted_resolution
from helpers import (
    BW,
    F0,
    TARGET,
    brute_force_backprojection,
    column_grid,
    lane_scenario,
)

C = 3.0e8


def stacked_array_scenario(n_tx=8, m_rx=8):
    """All elements colocated at the origin: every channel sees the same
    delay, so coherent gain is exactly n_tx * m_rx."""
    pos = Vec2(0.0, 0.0)
    term = Terminal(0, pos, (pos,) * n_tx, (pos,) * m_rx)
    return Scenario(
        terminals=(term,), targets=(PointTarget(TARGET),), f0=F0, bandwidth=BW
    )


class TestBackproject:
    @pytest.fixture(autouse=True)
    def bands_of_any_size(self):
        """Any band repays its fork, so that these small grids still fork
        as many bands as rows, workers and CPUs allow."""
        with patch.object(imaging, "_BAND_PIXCH", 1):
            yield

    def test_coherent_gain_64_channels(self):
        sc = stacked_array_scenario(8, 8)
        tau = bistatic_delay(Vec2(0, 0), Vec2(0, 0), TARGET)
        fs = 4 * BW
        t0 = tau - 40 / fs  # target delay exactly on the sample lattice
        records = synthesize(sc, (t0, t0 + 80 / fs), fs=fs)
        assert len(records) == 64
        grid = ImageGrid(Vec2(-0.2, 19.8), (0.1, 0.1), (5, 5))  # node (2,2) on target
        (image,) = pair_images(records, sc, grid)
        peak = image.pixels[2, 2]
        assert abs(abs(peak) - 64.0) < 1e-6
        assert abs(np.angle(peak)) < 1e-6

    def test_zero_records_zero_image(self):
        sc = stacked_array_scenario(1, 1)
        records = Records(
            channels=np.array([(0, 0, 0, 0)]),
            samples=np.zeros((1, 200), dtype=complex),
            t0=1.0e-7,
            fs=4 * BW,
        )
        grid = ImageGrid(Vec2(-0.5, 19.5), (0.25, 0.25), (5, 5))
        (image,) = pair_images(records, sc, grid)
        assert np.all(image.pixels == 0)

    def test_single_channel_cut_matches_model(self):
        # |I| along the range cut traces the |sinc| mainlobe of width c/2B
        sc = lane_scenario(n_terminals=1, m_rx=1)
        grid = column_grid(0.0, 18.5, 21.5, 0.02)
        window = suggest_window(sc, grid)
        records = synthesize(sc, window)
        (rec,) = records
        (image,) = pair_images(records, sc, grid)
        # direct evaluation of the model on the same cut
        ys = grid.y_coords
        expect = np.empty(len(ys), dtype=complex)
        for j, y in enumerate(ys):
            tau = 2.0 * math.hypot(0.0 - 0.0, y - 0.0) / C
            pos = (tau - rec.t0) * rec.fs
            i0 = min(max(int(math.floor(pos)), 0), len(rec.samples) - 2)
            frac = pos - i0
            val = rec.samples[i0] * (1 - frac) + rec.samples[i0 + 1] * frac
            expect[j] = val * np.exp(2j * math.pi * F0 * tau)
        np.testing.assert_allclose(image.pixels[0], expect, rtol=1e-9, atol=1e-12)
        # mainlobe width sanity: first minima bracket ~2 * c/2B
        mag = np.abs(image.pixels[0])
        peak = int(np.argmax(mag))
        assert ys[peak] == pytest.approx(20.0, abs=0.02)

    def test_oracle_equivalence_small_grid(self):
        sc = lane_scenario(n_terminals=2, m_rx=2, pairing=AssociationMatrix.full(2))
        grid = ImageGrid(Vec2(-0.6, 19.4), (0.075, 0.075), (16, 16))
        window = suggest_window(sc, grid)
        records = synthesize(replace(sc, pairing=AssociationMatrix.from_pairs(2, [(0, 1)])), window)
        (image,) = pair_images(records, sc, grid)
        oracle = brute_force_backprojection(records, sc, grid)
        peak = np.abs(oracle).max()
        np.testing.assert_allclose(image.pixels, oracle, rtol=1e-9, atol=1e-9 * peak)

    def test_worker_count_is_bit_identical(self):
        sc = lane_scenario(n_terminals=1, m_rx=4)
        grid = ImageGrid(Vec2(-1.0, 19.0), (0.05, 0.05), (41, 41))
        window = suggest_window(sc, grid)
        records = synthesize(sc, window)
        (base,) = pair_images(records, sc, grid, workers=1)
        for workers in (2, 8):
            (par,) = pair_images(records, sc, grid, workers=workers)
            assert np.array_equal(base.pixels, par.pixels)

    def test_bands_capped_at_the_cpu_count_match_serial(self):
        # on a host taken to have three CPUs, 2 and 3 bands and 8 workers
        # capped at 3; each band images the rows of every receive terminal
        sc = lane_scenario(n_terminals=3, m_rx=4, pairing=AssociationMatrix.full(3))
        grid = ImageGrid(Vec2(-0.6, 19.4), (0.05, 0.05), (25, 25))
        records = synthesize(sc, suggest_window(sc, grid))
        base = pair_images(records, sc, grid, workers=1)
        with patch.object(os, "cpu_count", return_value=3):
            runs = {w: pair_images(records, sc, grid, workers=w) for w in (2, 3, 8)}
        for images in runs.values():
            for a, b in zip(base, images):
                assert a.provenance == b.provenance
                assert np.array_equal(a.pixels, b.pixels)

    def test_rigid_translation_invariance(self):
        # translating the whole experiment (terminals, target, grid) by one
        # vector leaves |I| unchanged
        def shifted(p):
            return Vec2(p.x + 13.0, p.y - 7.0)

        sc = lane_scenario(n_terminals=2, m_rx=2)
        grid = ImageGrid(Vec2(-0.6, 19.4), (0.1, 0.1), (13, 13))
        moved_terms = tuple(
            Terminal(
                t.id,
                shifted(t.phase_center),
                t.tx_elements + (13.0, -7.0),
                t.rx_elements + (13.0, -7.0),
            )
            for t in sc.terminals
        )
        moved = Scenario(
            terminals=moved_terms,
            targets=tuple(PointTarget(shifted(t.position), t.reflectivity) for t in sc.targets),
            f0=sc.f0,
            bandwidth=sc.bandwidth,
            pairing=sc.pairing,
        )
        moved_grid = ImageGrid(shifted(grid.origin), grid.spacing, grid.size)
        window = suggest_window(sc, grid)
        mono = AssociationMatrix.from_pairs(2, [(0, 0)])
        (a,) = pair_images(synthesize(replace(sc, pairing=mono), window), sc, grid)
        (b,) = pair_images(synthesize(replace(moved, pairing=mono), window), moved, moved_grid)
        np.testing.assert_allclose(
            np.abs(a.pixels), np.abs(b.pixels), rtol=1e-6, atol=1e-9
        )

    @pytest.mark.parametrize(
        "pairing",
        [
            AssociationMatrix.identity(2),
            AssociationMatrix.full(2),
            AssociationMatrix(np.array([[0, 1], [0, 0]])),
        ],
    )
    def test_peak_within_one_pixel_of_target(self, pairing):
        sc = lane_scenario(n_terminals=2, m_rx=8, pairing=pairing)
        grid = ImageGrid(Vec2(-1.5, 18.5), (0.075, 0.075), (41, 41))
        window = suggest_window(sc, grid)
        records = synthesize(sc, window)
        for image in pair_images(records, sc, grid):
            i, j = np.unravel_index(np.argmax(image.magnitude), image.magnitude.shape)
            xs, ys = grid.x_coords, grid.y_coords
            assert abs(xs[i] - TARGET.x) <= grid.spacing[0]
            assert abs(ys[j] - TARGET.y) <= grid.spacing[1]

    def test_pixel_outside_window_names_channel(self):
        sc = lane_scenario(n_terminals=1, m_rx=1)
        grid = ImageGrid(Vec2(-0.5, 35.0), (0.5, 0.5), (3, 11))  # far outside window
        window = suggest_window(sc)  # targets only, no grid padding
        records = synthesize(sc, window)
        with pytest.raises(ValueError, match=r"channel \(0, 0, 0, 0\)"):
            pair_images(records, sc, grid)

    def test_window_error_does_not_depend_on_workers(self):
        # pair (0,0) of the lane on its default grid, the window's end cut
        # by 30%: each band count reports the pixel one worker reports
        path = Path(__file__).resolve().parent.parent / "scenarios" / "lane_multistatic.json"
        sc = load_scenario(path.read_text())
        sc = replace(sc, pairing=AssociationMatrix.from_pairs(len(sc.terminals), [(0, 0)]))
        grid = default_grid(sc)
        t0, t1 = suggest_window(sc, grid)
        records = synthesize(sc, (t0, t1 - 0.3 * (t1 - t0)))
        with pytest.raises(ValueError, match=r"^pixel \(48,48\) ") as serial:
            pair_images(records, sc, grid, workers=1)
        with patch.object(os, "cpu_count", return_value=3):
            for workers in (2, 3):
                with pytest.raises(ValueError, match=f"^{re.escape(str(serial.value))}$"):
                    pair_images(records, sc, grid, workers=workers)

    def test_window_error_names_the_first_failing_row(self):
        # two Tx and three Rx elements: the far Tx element 1 and Rx element 2
        # put channels (0,2), (1,0), (1,1) and (1,2) (rows 2-5) past a window
        # end that (0,0) and (0,1) clear; the check used to run in kernel
        # order, ascending Rx element first, and named (1,0)
        far = Vec2(0.0, -0.5)
        sc = Scenario(terminals=(Terminal(0, Vec2(0, 0), (Vec2(0, 0), far), (Vec2(0, 0), Vec2(0.01, 0), far)),),
                      targets=(PointTarget(Vec2(0.1, 20.0)),), f0=F0, bandwidth=BW)
        grid = ImageGrid(Vec2(-0.1, 19.8), (0.05, 0.05), (9, 9))
        records = synthesize(sc, suggest_window(sc, grid))
        # the window moved to end at a path of 40.65 m: the farthest pixel,
        # (8,8) at (0.3, 20.2), is 40.40 m from (0,1) and 40.90 m from (0,2)
        t_end = 40.65 / C
        moved = replace(records, t0=t_end - (records.samples.shape[1] - 1) / records.fs)
        with patch.object(os, "cpu_count", return_value=2):
            for workers in (1, 2):
                with pytest.raises(ValueError, match=r"^pixel \(8,8\) .* channel \(0, 0, 0, 2\)$"):
                    pair_images(moved, sc, grid, workers=workers)

    def test_window_error_forks_no_process(self):
        # every window is checked before the bands fork
        sc = lane_scenario(n_terminals=1, m_rx=1)
        grid = ImageGrid(Vec2(-0.5, 35.0), (0.5, 0.5), (3, 11))  # far outside window
        records = synthesize(sc, suggest_window(sc))
        fork, forks = os.fork, []

        def counted_fork():
            forks.append(None)
            return fork()

        with patch.object(os, "cpu_count", return_value=2), patch.object(os, "fork", counted_fork):
            with pytest.raises(ValueError, match=r"^pixel \(0,10\) .* channel \(0, 0, 0, 0\)$"):
                pair_images(records, sc, grid, workers=2)
        assert forks == []

    def test_no_process_is_left_behind(self):
        # two bands, x rows 0-9 here and 10-19 in a forked child: a run
        # that succeeds and one whose own band fails after the fork
        sc = lane_scenario(n_terminals=1, m_rx=2)
        grid = ImageGrid(Vec2(0.0, 20.0), (1.0, 1.0), (20, 1))
        records = synthesize(sc, suggest_window(sc, grid))
        parent, interp = os.getpid(), imaging._interp_linear

        def fails_in_parent(*args):
            if os.getpid() == parent:
                raise MemoryError
            return interp(*args)

        with patch.object(os, "cpu_count", return_value=2):
            pair_images(records, sc, grid, workers=2)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            with patch.object(imaging, "_interp_linear", fails_in_parent), \
                    pytest.raises(MemoryError):
                pair_images(records, sc, grid, workers=2)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def test_band_dying_without_a_window_error_raises(self):
        # a child fails for an outside reason: its exit code is named, and
        # the parent images only its own band, in one run of both records
        sc = lane_scenario(n_terminals=1, m_rx=2)
        grid = ImageGrid(Vec2(-0.2, 19.8), (0.05, 0.05), (9, 9))
        records = synthesize(sc, suggest_window(sc, grid))
        parent, interp, calls = os.getpid(), imaging._interp_linear, []

        def fails_in_children(*args):
            if os.getpid() != parent:
                raise MemoryError
            calls.append(None)
            return interp(*args)

        with patch.object(os, "cpu_count", return_value=2), \
                patch.object(imaging, "_interp_linear", fails_in_children):
            with pytest.raises(RuntimeError, match=r"exited with codes \[1\]$"):
                pair_images(records, sc, grid, workers=2)
        assert len(calls) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_forks_are_capped_by_rows_and_cpus(self):
        sc = lane_scenario(n_terminals=1, m_rx=2)
        grid = ImageGrid(Vec2(-0.2, 19.8), (0.05, 0.05), (9, 9))
        records = synthesize(sc, suggest_window(sc, grid))
        fork, forks = os.fork, []

        def counted_fork():
            forks.append(None)
            return fork()

        with patch.object(os, "fork", counted_fork):
            (image,) = pair_images(records, sc, grid, workers=64)
        assert len(forks) == min(9, os.cpu_count() or 1) - 1
        assert np.array_equal(image.pixels, pair_images(records, sc, grid)[0].pixels)

    def test_linear_interpolation_off_sample_amplitude(self):
        sc = lane_scenario(n_terminals=1, m_rx=1)
        tau = bistatic_delay(Vec2(*sc.terminals[0].tx_elements[0]),
                             Vec2(*sc.terminals[0].rx_elements[0]), TARGET)
        fs = 4 * BW
        t0 = tau - (40 + 0.5) / fs  # peak half-way between samples
        records = synthesize(sc, (t0, t0 + 81 / fs), fs=fs)
        grid = ImageGrid(Vec2(TARGET.x, TARGET.y), (0.1, 0.1), (1, 1))
        (image,) = pair_images(records, sc, grid)
        lin = abs(image.pixels[0, 0])
        assert lin == pytest.approx(1.0, abs=0.05)


class TestWholePairs:
    """``pair_images`` takes whole pairs, in the order ``synthesize`` writes
    them: pair by pair, each in (tx element, rx element) row-major order."""

    @pytest.fixture(scope="class")
    def acquisition(self):
        terminals = tuple(
            Terminal(i, Vec2(0.7 * i, 0.0), (Vec2(0.7 * i - 0.01, 0.0), Vec2(0.7 * i + 0.01, 0.0)),
                     tuple(Vec2(0.7 * i + 0.005 * m, 0.01) for m in range(3)))
            for i in range(2)
        )
        sc = Scenario(terminals=terminals, targets=(PointTarget(TARGET),), f0=F0, bandwidth=BW,
                      noise_power=0.1, pairing=AssociationMatrix.full(2))
        grid = ImageGrid(Vec2(-0.2, 19.8), (0.05, 0.05), (9, 9))
        return sc, grid, synthesize(sc, suggest_window(sc, grid))

    @pytest.mark.parametrize("rows", [
        lambda c: [1, 0, *range(2, c)],  # two channels of a pair swapped
        lambda c: [0, *range(c)],  # one channel twice
        lambda c: [*range(c), *range(6)],  # a whole pair twice
        lambda c: list(range(c - 1)),  # the last pair without its last channel
        lambda c: [*range(6, c), *range(1, 6)],  # the first pair without its first channel
    ], ids=["permuted", "duplicated-channel", "duplicated-pair", "partial-last", "partial-first"])
    def test_other_channel_tables_raise(self, acquisition, rows):
        sc, grid, records = acquisition
        with pytest.raises(ValueError, match=r"^records must hold whole pairs"):
            pair_images(records[rows(len(records))], sc, grid)

    def test_a_pair_alone_gives_the_same_bits(self, acquisition):
        sc, grid, records = acquisition
        images = pair_images(records, sc, grid)
        assert [im.provenance for im in images] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        with patch.object(os, "cpu_count", return_value=2), patch.object(imaging, "_BAND_PIXCH", 1):
            for image in images:
                alone = records[(records.channels[:, :2] == image.provenance).all(axis=1)]
                for workers in (1, 2):
                    (again,) = pair_images(alone, sc, grid, workers=workers)
                    assert np.array_equal(again.pixels, image.pixels)


def test_small_calls_do_not_fork():
    # the lane's envelope grids on two CPUs at two workers: 16x16 for the
    # default 49x49 grid (0.86 M pixel-channels) images in one process,
    # 32x32 for the 121x121 grid at 8 mm (3.43 M) in two bands
    path = Path(__file__).resolve().parent.parent / "scenarios" / "lane_multistatic.json"
    sc = load_scenario(path.read_text())
    region = coverage_region(sc, sc.targets[0].position)
    small, large = (envelope_grid(region, g) for g in (default_grid(sc), default_grid(sc, 60, 0.008)))
    assert (small.size, large.size) == ((16, 16), (32, 32))
    records = synthesize(sc, suggest_window(sc, large))
    fork = os.fork
    for grid, expected in ((small, 0), (large, 1)):
        forks = []

        def counted_fork():
            forks.append(None)
            return fork()

        with patch.object(os, "cpu_count", return_value=2), patch.object(os, "fork", counted_fork):
            images = pair_images(records, sc, grid, workers=2)
        assert len(forks) == expected
        for a, b in zip(pair_images(records, sc, grid, workers=1), images, strict=True):
            assert np.array_equal(a.pixels, b.pixels)


def traced_peak(records, sc, grid):
    tracemalloc.start()
    try:
        pair_images(records, sc, grid, workers=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_set_stays_within_budget():
    """One pair of the lane (134 channels) at 49x49 and 121x121: beyond
    the pair image and Tx map, a call holds its blocks within the byte
    budget, or one element where that alone exceeds it. Not counted:
    the same blocks on a one-pixel grid (the grouping and samples of the
    records) and one numpy iterator buffer of complex values."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / "lane_multistatic.json"
    sc = load_scenario(path.read_text())
    step, target = default_grid(sc).spacing[0], sc.targets[0].position

    def grid(n):
        half = step * (n - 1) / 2
        return ImageGrid(Vec2(target.x - half, target.y - half), (step, step), (n, n))

    records = synthesize(sc, suggest_window(sc, grid(121)))
    records = records[(records.channels[:, :2] == (0, 0)).all(axis=1)]
    budget, pixch_bytes = imaging._BLOCK_BYTES, imaging._PIXCH_BYTES
    for n in (49, 121):
        per_block = imaging._block_elements(n * n)
        with patch.object(imaging, "_BLOCK_BYTES", per_block * pixch_bytes):
            fixed = traced_peak(records, sc, grid(1)) + np.getbufsize() * 16
        used = traced_peak(records, sc, grid(n)) - (16 + 8) * n * n - fixed
        assert used <= max(budget, pixch_bytes * n * n), (n, per_block, used)


class TestPointSpread:
    def test_single_terminal_matches_prediction(self):
        sc = lane_scenario(n_terminals=1, m_rx=134)
        est = predicted_resolution(coverage_region(sc, TARGET))
        grid = ImageGrid(Vec2(-1.05, 18.95), (0.075, 0.075), (29, 29))
        psf = point_spread(sc, TARGET, grid)
        assert psf.provenance == "fused:coh"
        # -3 dB measurement agrees with the spectral-extent prediction
        m = compute_metrics(psf)
        assert m.rho_x_meas == pytest.approx(est.rho_x, rel=0.10)
        assert m.rho_y_meas == pytest.approx(est.rho_y, rel=0.10)

    def test_probe_replaces_scene_content(self):
        sc = lane_scenario(n_terminals=1, m_rx=1, noise_power=0.5, seed=9)
        sc = replace(
            sc, targets=(PointTarget(Vec2(5.0, 30.0), 7.0 + 0.0j),)
        )
        grid = ImageGrid(Vec2(-0.3, 19.7), (0.075, 0.075), (9, 9))
        psf = point_spread(sc, TARGET, grid)
        # unit probe, noiseless single channel: peak ~1, not scaled by the
        # scene target's reflectivity of 7 and not perturbed by noise
        assert np.abs(psf.pixels).max() == pytest.approx(1.0, rel=0.05)


class TestDefaultGrid:
    def test_spacing_follows_prediction(self):
        sc = lane_scenario(n_terminals=1, m_rx=134)
        grid = default_grid(sc)
        est = predicted_resolution(coverage_region(sc, TARGET, n_freq=16))
        assert grid.spacing[0] == pytest.approx(min(est.rho_x, est.rho_y) / 4)
        xs, ys = grid.x_coords, grid.y_coords
        assert xs[0] <= TARGET.x <= xs[-1]
        assert ys[0] <= TARGET.y <= ys[-1]

    def test_explicit_spacing_centres_on_the_target_box_without_prediction(self):
        sc = replace(lane_scenario(n_terminals=1, m_rx=1),
                     targets=(PointTarget(TARGET), PointTarget(Vec2(1.0, 20.5))))
        with patch.object(imaging, "predicted_resolution", side_effect=AssertionError):
            grid = default_grid(sc, margin_cells=3, spacing=0.1)
        assert grid.spacing == (0.1, 0.1) and grid.size == (17, 12)
        assert grid.origin.x == pytest.approx(-0.3) and grid.origin.y == pytest.approx(19.7)

    def test_unbounded_resolution_rejected(self):
        # exact forward scatter: k* = 0 at every frequency, no coverage at all
        tx = Terminal(0, Vec2(0, 0), (Vec2(0, 0),), ())
        rx = Terminal(1, Vec2(0, 40), (), (Vec2(0, 40),))
        sc = Scenario(
            terminals=(tx, rx),
            targets=(PointTarget(TARGET),),
            f0=F0,
            bandwidth=BW,
            pairing=AssociationMatrix(np.array([[0, 1], [0, 0]])),
        )
        with pytest.raises(ValueError, match="no finite predicted resolution"):
            default_grid(sc)


class TestFinestPairResolution:
    scenarios = pytest.mark.parametrize("sc", [
        lane_scenario(n_terminals=3, m_rx=6),
        load_scenario((Path(__file__).resolve().parent.parent / "scenarios"
                       / "opposite_side.json").read_text()),
    ], ids=["lane", "opposite-side"])

    @staticmethod
    def finest_alone(sc, target):
        """The finest rho per axis over the passes each pair gets on its own."""
        alone = [predicted_resolution(coverage_region(
            replace(sc, pairing=AssociationMatrix.from_pairs(sc.n_terminals, [pair])), target))
            for pair in sc.pairing.active_pairs()]
        return min(est.rho_x for est in alone), min(est.rho_y for est in alone)

    @scenarios
    def test_equals_each_pair_predicted_alone(self, sc):
        # one coverage region grouped by pair gives exactly the finest rho of
        # the passes each pair would get on its own
        (target,) = sc.targets
        assert imaging.finest_pair_resolution(coverage_region(sc, target.position)) == (
            self.finest_alone(sc, target.position))


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestEnvelopeGrid:
    scenarios = pytest.mark.parametrize("name", [
        "lane_multistatic.json", "opposite_side.json", "lane_single_terminal.json"])

    @scenarios
    def test_pair_extents_equal_each_pair_predicted_alone(self, name):
        sc = load_scenario((SCENARIOS / name).read_text())
        target = imaging.target_box(sc)[2]
        region = coverage_region(sc, target)
        alone = [predicted_resolution(coverage_region(
            replace(sc, pairing=AssociationMatrix.from_pairs(sc.n_terminals, [pair])), target))
            for pair in sorted(sc.pairing.active_pairs())]
        assert np.array_equal(region.pair_extents, [[est.dk_x, est.dk_y] for est in alone])
        assert len(region.pair_extents) == len({tuple(channel[:2]) for channel in region.channels.tolist()})


class TestExports:
    def test_csv_and_pgm(self, tmp_path):
        sc = lane_scenario(n_terminals=1, m_rx=2)
        grid = ImageGrid(Vec2(-0.3, 19.7), (0.1, 0.1), (7, 7))
        window = suggest_window(sc, grid)
        (image,) = pair_images(synthesize(sc, window), sc, grid)
        csv = tmp_path / "im.csv"
        pgm = tmp_path / "im.pgm"
        export_image_csv(image, csv)
        export_image_pgm(image, pgm, dynamic_range_db=40.0)
        lines = csv.read_text().splitlines()
        assert lines[0] == "x_m,y_m,re,im"
        assert len(lines) == 1 + 49
        raw = pgm.read_bytes()
        assert raw.startswith(b"P5\n7 7\n255\n")
        assert len(raw) == len(b"P5\n7 7\n255\n") + 49
        # byte-identical re-export
        export_image_csv(image, tmp_path / "im2.csv")
        assert (tmp_path / "im2.csv").read_bytes() == csv.read_bytes()

    @pytest.mark.parametrize("dynamic_range_db", [0.0, -10.0, math.nan, math.inf])
    def test_pgm_rejects_invalid_dynamic_range(self, tmp_path, dynamic_range_db):
        # -10 dB used to write an all-white raster, 0 and nan to warn and
        # write garbage
        grid = ImageGrid(Vec2(0.0, 0.0), (0.1, 0.1), (3, 3))
        image = ComplexImage(grid, np.arange(9.0).reshape(3, 3), (0, 0))
        with pytest.raises(ValueError, match="dynamic range must be finite and positive"):
            export_image_pgm(image, tmp_path / "im.pgm", dynamic_range_db)
        assert not (tmp_path / "im.pgm").exists()
