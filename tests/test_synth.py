import math

import numpy as np
import pytest

from netrad.scene import (
    AssociationMatrix,
    PointTarget,
    Scenario,
    Vec2,
)
from netrad.synth import (
    bistatic_delay,
    default_sample_rate,
    export_record_csv,
    suggest_window,
    synthesize,
)
from helpers import BW, F0, TARGET, lane_scenario, point_terminal

C = 3.0e8


def single_terminal_scenario(noise=0.0, seed=0, targets=None):
    if targets is None:
        targets = (PointTarget(TARGET),)
    return Scenario(
        terminals=(point_terminal(0, Vec2(0, 0)),),
        targets=targets,
        f0=F0,
        bandwidth=BW,
        noise_power=noise,
        rng_seed=seed,
    )


class TestBistaticDelay:
    def test_broadside_round_trip(self):
        tau = bistatic_delay(Vec2(0, 0), Vec2(0, 0), TARGET)
        assert tau == pytest.approx(40.0 / C, rel=1e-12)
        assert tau == pytest.approx(1.3333e-7, rel=1e-4)

    def test_zero_distance(self):
        assert bistatic_delay(TARGET, TARGET, TARGET) == 0.0

    def test_swap_symmetry(self):
        a, b = Vec2(-3, 1), Vec2(5, 2)
        assert bistatic_delay(a, b, TARGET) == bistatic_delay(b, a, TARGET)


class TestSynthesize:
    def test_peak_value_and_phase_on_sample(self):
        import cmath

        sc = single_terminal_scenario()
        tau = bistatic_delay(Vec2(0, 0), Vec2(0, 0), TARGET)
        fs = default_sample_rate(BW)
        t0 = tau - 30 / fs  # tau lands exactly on sample 30
        records = synthesize(sc, (t0, t0 + 60 / fs), fs=fs)
        assert len(records) == 1
        rec = records[0]
        peak = rec.samples[30]
        assert abs(peak) == pytest.approx(1.0, rel=1e-12)
        # value at t = tau is g_rc(0) * exp(-j 2 pi f0 tau)
        expect = cmath.exp(-2j * math.pi * F0 * tau)
        assert abs(peak - expect) < 1e-9
        assert int(np.argmax(np.abs(rec.samples))) == 30

    def test_empty_scene_gives_zeros(self):
        sc = single_terminal_scenario(targets=())
        window = (1.2e-7, 1.5e-7)
        (rec,) = synthesize(sc, window)
        assert np.all(rec.samples == 0)

    @pytest.mark.parametrize(
        "dt,fs",
        [
            (1e-9, 2e9),  # 1 ns = 2 samples, 28 whole carrier turns
            (0.625e-9, 1.6e9),  # 1 sample, 17.5 carrier turns: flips the sign
        ],
    )
    def test_sync_error_shifts_peak_and_phase(self, dt, fs):
        import cmath

        base = single_terminal_scenario()
        sc = Scenario(
            terminals=base.terminals, targets=base.targets, f0=F0, bandwidth=BW,
            sync_errors=np.array([[dt]]),
        )
        tau = bistatic_delay(Vec2(0, 0), Vec2(0, 0), TARGET)
        t0 = tau - 30 / fs
        window = (t0, t0 + 60 / fs)
        (ref,) = synthesize(base, window, fs=fs)
        (shifted,) = synthesize(sc, window, fs=fs)
        # clock error delays the envelope by dt (on-lattice here) ...
        di = int(np.argmax(np.abs(shifted.samples))) - int(np.argmax(np.abs(ref.samples)))
        assert di == round(dt * fs)
        # ... and rotates the carrier phase by -2 pi f0 dt
        ratio = shifted.samples[30 + di] / ref.samples[30]
        assert abs(ratio - cmath.exp(-2j * math.pi * F0 * dt)) < 1e-9

    def test_linearity(self):
        t1 = PointTarget(Vec2(0.0, 20.0), 1.0 + 0.5j)
        t2 = PointTarget(Vec2(1.0, 21.5), -0.3 + 0.8j)
        window = (1.1e-7, 1.7e-7)
        (both,) = synthesize(single_terminal_scenario(targets=(t1, t2)), window)
        (only1,) = synthesize(single_terminal_scenario(targets=(t1,)), window)
        (only2,) = synthesize(single_terminal_scenario(targets=(t2,)), window)
        np.testing.assert_allclose(
            both.samples, only1.samples + only2.samples, rtol=0, atol=1e-12
        )

    def test_noise_statistics(self):
        sigma2 = 0.04
        sc = Scenario(
            terminals=tuple(point_terminal(i, Vec2(0.7 * i, 0)) for i in range(3)),
            targets=(),
            f0=F0,
            bandwidth=BW,
            noise_power=sigma2,
            pairing=AssociationMatrix.identity(3),
            rng_seed=11,
        )
        records = synthesize(sc, (0.0, 1e-5))  # 3 x 20001 samples
        z = records.samples.ravel()
        n = len(z)
        assert n >= 1e4
        # mean -> 0 and var -> sigma2 within 3-sigma confidence
        assert abs(z.mean()) < 3 * math.sqrt(sigma2 / n)
        var = np.mean(np.abs(z) ** 2)
        assert abs(var - sigma2) < 3 * sigma2 * math.sqrt(2.0 / n)

    def test_channels_get_independent_noise(self):
        sc = lane_scenario(n_terminals=2, m_rx=2, noise_power=0.1, seed=5)
        records = synthesize(sc, (1.1e-7, 1.7e-7))
        assert len(records) == 4
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                assert not np.array_equal(records[i].samples, records[j].samples)

    def test_determinism(self):
        sc = lane_scenario(n_terminals=2, m_rx=2, noise_power=0.1, seed=5)
        a = synthesize(sc, (1.1e-7, 1.7e-7))
        b = synthesize(sc, (1.1e-7, 1.7e-7))
        assert np.array_equal(a.channels, b.channels)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_noise(self):
        sc1 = lane_scenario(n_terminals=1, m_rx=1, noise_power=0.1, seed=1)
        sc2 = lane_scenario(n_terminals=1, m_rx=1, noise_power=0.1, seed=2)
        (a,) = synthesize(sc1, (1.1e-7, 1.7e-7))
        (b,) = synthesize(sc2, (1.1e-7, 1.7e-7))
        assert not np.array_equal(a.samples, b.samples)

    def test_terminal_on_target_raises(self):
        sc = Scenario(terminals=(point_terminal(0, TARGET),), targets=(PointTarget(TARGET),),
                      f0=F0, bandwidth=BW)
        with pytest.raises(ValueError, match="propagation paths must be positive"):
            synthesize(sc, suggest_window(sc))

    def test_window_truncation_raises(self):
        sc = single_terminal_scenario()
        tau = 40.0 / C
        with pytest.raises(ValueError, match="truncates"):
            synthesize(sc, (tau - 1e-9, tau + 1e-9))

    def test_sub_nyquist_rate_raises(self):
        sc = single_terminal_scenario()
        with pytest.raises(ValueError, match="Nyquist"):
            synthesize(sc, (1.1e-7, 1.7e-7), fs=BW / 2)

    @pytest.mark.parametrize("fs", [math.nan, math.inf])
    def test_non_finite_rate_raises(self, fs):
        sc = single_terminal_scenario()
        with pytest.raises(ValueError, match=r"^sample rate fs = (nan|inf) Hz must be finite"):
            synthesize(sc, (1.1e-7, 1.7e-7), fs=fs)

    @pytest.mark.parametrize("window", [(math.nan, 1.7e-7), (1.1e-7, math.inf), (-math.inf, 1.7e-7)])
    def test_non_finite_window_raises(self, window):
        sc = single_terminal_scenario()
        with pytest.raises(ValueError, match=r"^acquisition window .* s must be finite and not empty$"):
            synthesize(sc, window)

    def test_records_index_like_numpy(self):
        sc = lane_scenario(n_terminals=2, m_rx=2, pairing=AssociationMatrix.full(2))
        records = synthesize(sc, (1.05e-7, 1.75e-7))
        one = records[5]  # pair (1, 0), Rx element 1
        assert one.channels.tolist() == [1, 0, 0, 1]
        assert np.array_equal(one.samples, records.samples[5]) and one.samples.ndim == 1
        mask = records.channels[:, 1] == 1
        subset = records[mask]
        assert len(subset) == 4 and np.array_equal(subset.samples, records.samples[mask])
        assert (subset.t0, subset.fs, subset.t_end) == (records.t0, records.fs, records.t_end)

    def test_record_order_is_channel_row_major(self):
        sc = lane_scenario(n_terminals=2, m_rx=2, pairing=AssociationMatrix.full(2))
        records = synthesize(sc, (1.05e-7, 1.75e-7))
        channels = [tuple(channel) for channel in records.channels.tolist()]
        expect = [
            (l, k, 0, m) for l in range(2) for k in range(2) for m in range(2)
        ]
        assert channels == expect


class TestSuggestWindow:
    def test_covers_targets_with_margin(self):
        sc = single_terminal_scenario()
        lo, hi = suggest_window(sc)
        tau = 40.0 / C
        assert lo <= tau - 4.0 / BW and hi >= tau + 4.0 / BW
        synthesize(sc, (lo, hi))  # margin is sufficient

    def test_covers_grid_corners(self):
        from netrad.scene import ImageGrid

        sc = single_terminal_scenario()
        grid = ImageGrid(Vec2(-5, 10), (0.5, 0.5), (21, 41))
        lo, hi = suggest_window(sc, grid)
        far = bistatic_delay(Vec2(0, 0), Vec2(0, 0), Vec2(5, 30))
        near = bistatic_delay(Vec2(0, 0), Vec2(0, 0), Vec2(0, 10))
        assert lo < near and hi > far

    def test_sync_error_shifts_targets_not_pixels(self):
        from netrad.scene import ImageGrid

        dt = 15e-9
        sc = single_terminal_scenario()
        grid = ImageGrid(Vec2(-1, 19), (0.5, 0.5), (5, 5))
        synced = Scenario(sc.terminals, sc.targets, F0, BW, sync_errors=[[dt]])
        lo, hi = suggest_window(synced, grid)
        margin = 6.0 / BW
        corners = [bistatic_delay(Vec2(0, 0), Vec2(0, 0), Vec2(x, y))
                   for x in (-1, 1) for y in (19, 21)]
        # the nearest pixel delay lies inside the bottom edge, at (0, 19)
        near = bistatic_delay(Vec2(0, 0), Vec2(0, 0), Vec2(0, 19))
        assert lo == near - margin
        assert hi == 40.0 / C + dt + margin
        assert suggest_window(sc, grid) == (near - margin, max(corners) + margin)

    def test_covers_the_nearest_pixel_inside_an_edge(self):
        # the least bistatic delay over a grid lies at the middle of its
        # bottom edge, below every corner's; bounding by the corners alone
        # left that pixel outside the window
        from netrad.scene import ImageGrid

        sc = single_terminal_scenario()
        grid = ImageGrid(Vec2(-4.8, 15.2), (0.4, 0.4), (25, 25))
        lo, _ = suggest_window(sc, grid)
        x, y = grid.pixel_coords()
        delays = 2.0 * np.hypot(x, y) / C
        assert lo <= delays.min() - 6.0 / BW


class TestExport:
    def test_record_csv(self, tmp_path):
        sc = single_terminal_scenario()
        (rec,) = synthesize(sc, (1.2e-7, 1.5e-7))
        path = tmp_path / "rec.csv"
        export_record_csv(rec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,re,im"
        assert len(lines) == 1 + len(rec.samples)
