"""The CSV writers against a reference writer that formats every row
with its own f-string, on values at the edges of the 9-digit format."""

from unittest.mock import patch

import numpy as np

from netrad import csvrows
from netrad.imaging import ComplexImage, export_image_csv
from netrad.scene import ImageGrid, Vec2
from netrad.synth import Records, export_record_csv
from netrad.wavenumber import (WavenumberRegion, coverage_region, export_coverage_csv,
                               export_hull_csv, predicted_resolution)
from helpers import TARGET, lane_scenario

EDGE = np.array([-0.0, 0.0, 1e-5, -1e-5, 1e21, -1e21, 123456789.5, 2.5e-300, np.inf, np.nan])


def ulps(v, n=2):
    """``v`` and its ``n`` neighbours in float64 on each side."""
    out = [v]
    for direction in (np.inf, -np.inf):
        w = v
        for _ in range(n):
            out.append(w := float(np.nextafter(w, direction)))
    return out


# where %.9g changes notation, rounds up to a new decade or ties
FORMAT_EDGES = [sign * v for sign in (1.0, -1.0) for v in [
    0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan,
    *(u for p in (1e-5, 1e-4, 0.001, 0.1, 1.0, 10.0, 1e8, 1e9) for u in ulps(p)),
    *(u for k in range(-14, 2) for u in ulps(999999999.5 * 10.0**k)),
    *(u for k in range(-13, 1) for u in ulps(123456789.5 * 10.0**k)),
]]


def reference_coverage_csv(region):
    text = "pair_id,k_x,k_y,f_hz\n"
    for pair, samples in zip(region.channels.tolist(), region.samples):
        pid = "-".join(str(i) for i in pair)
        for (kx, ky), f in zip(samples, region.freqs):
            text += f"{pid},{kx:.9g},{ky:.9g},{f:.9g}\n"
    return text


def reference_image_csv(image):
    text = "x_m,y_m,re,im\n"
    for i, xv in enumerate(image.grid.x_coords):
        for j, yv in enumerate(image.grid.y_coords):
            v = image.pixels[i, j]
            text += f"{xv:.9g},{yv:.9g},{v.real:.9g},{v.imag:.9g}\n"
    return text


def reference_record_csv(record):
    text = "t_s,re,im\n"
    times = record.t0 + np.arange(len(record.samples)) / record.fs
    for t, v in zip(times, record.samples):
        text += f"{t:.9g},{v.real:.9g},{v.imag:.9g}\n"
    return text


def reference_hull_csv(estimate):
    return "k_x,k_y\n" + "".join(f"{x:.9g},{y:.9g}\n" for x, y in estimate.hull)


def test_numbers_at_the_format_edges_match_python(tmp_path):
    csvrows.write_csv(tmp_path / "v.csv", "v", np.array(FORMAT_EDGES)[:, None, None])
    assert (tmp_path / "v.csv").read_text().splitlines() == ["v", *("%.9g" % v for v in FORMAT_EDGES)]


def test_rows_cross_chunk_boundaries(tmp_path):
    # blocks of each broadcast shape, cut into chunks along either axis
    rng = np.random.default_rng(3)
    outer, inner = 5, 11
    blocks = [np.array([f"id{i}" for i in range(outer)])[:, None, None],
              rng.standard_normal((1, inner, 1)), rng.standard_normal((outer, inner, 2)) * 1e3,
              rng.standard_normal((outer, 1, 1)) * 1e-3]
    full = [np.broadcast_to(b, (outer, inner, b.shape[2])).reshape(-1, b.shape[2]) for b in blocks]
    expected = ["a,b,c,d,e", *(",".join([str(t[0]), *("%.9g" % v for b in full[1:] for v in b[r])])
                               for r, t in enumerate(full[0]))]
    for chunk in (1, 3, 7, 11, 23, 1024):
        with patch.object(csvrows, "_CHUNK_ROWS", chunk):
            csvrows.write_csv(tmp_path / "rows.csv", "a,b,c,d,e", *blocks)
        assert (tmp_path / "rows.csv").read_text().splitlines() == expected


def test_hull_csv_matches_reference(tmp_path):
    for sc in (lane_scenario(n_terminals=2, m_rx=3), lane_scenario(n_terminals=1, m_rx=1)):
        estimate = predicted_resolution(coverage_region(sc, TARGET))
        export_hull_csv(estimate, tmp_path / "hull.csv")
        assert (tmp_path / "hull.csv").read_text() == reference_hull_csv(estimate)


def test_coverage_csv_matches_reference(tmp_path):
    edge = WavenumberRegion(channels=np.array([[0, 1, 12, 3]]),
                            samples=np.column_stack([EDGE, -EDGE[::-1]])[None], freqs=-EDGE)
    sampled = coverage_region(lane_scenario(n_terminals=2, m_rx=3), TARGET, n_freq=5,
                              baseband=True)
    for region in (edge, sampled):
        export_coverage_csv(region, tmp_path / "coverage.csv")
        assert (tmp_path / "coverage.csv").read_text() == reference_coverage_csv(region)


def test_image_csv_matches_reference(tmp_path):
    rng = np.random.default_rng(5)
    pixels = (rng.standard_normal((5, 4)) - 1j * rng.standard_normal((5, 4))) * 1e-7
    pixels.real.flat[: len(EDGE)] = EDGE
    pixels.imag.flat[: len(EDGE)] = -EDGE[::-1]  # negative imaginary parts, -0.0 last
    image = ComplexImage(ImageGrid(Vec2(-0.2, 1e-5), (0.1, 1e21), (5, 4)), pixels, (0, 0))
    export_image_csv(image, tmp_path / "image.csv")
    assert (tmp_path / "image.csv").read_text() == reference_image_csv(image)


def test_record_csv_matches_reference(tmp_path):
    samples = np.empty(len(EDGE), complex)
    samples.real = EDGE
    samples.imag = -EDGE[::-1]  # negative imaginary parts, -0.0 last
    edge = Records(channels=np.array((0, 1, 12, 3)), samples=samples, t0=-1e-5, fs=3e8)
    rng = np.random.default_rng(5)
    noisy = Records(channels=np.array((2, 0, 1, 7)), t0=1.2e-7, fs=123456789.5,
                    samples=(rng.standard_normal(49) + 1j * rng.standard_normal(49)) * 1e-3)
    for record in (edge, noisy):
        export_record_csv(record, tmp_path / "record.csv")
        assert (tmp_path / "record.csv").read_text() == reference_record_csv(record)
