"""The CSV writers against a reference writer that formats every row
with its own f-string, on values at the edges of the 9-digit format."""

import numpy as np

from netrad.imaging import ComplexImage, export_image_csv
from netrad.scene import ImageGrid, Vec2
from netrad.synth import SignalRecord, export_record_csv
from netrad.wavenumber import WavenumberRegion, coverage_region, export_coverage_csv
from helpers import TARGET, lane_scenario

EDGE = np.array([-0.0, 0.0, 1e-5, -1e-5, 1e21, -1e21, 123456789.5, 2.5e-300, np.inf, np.nan])


def reference_coverage_csv(region):
    text = "pair_id,k_x,k_y,f_hz\n"
    for pair, samples in zip(region.pairs, region.samples):
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
    for t, v in zip(record.times, record.samples):
        text += f"{t:.9g},{v.real:.9g},{v.imag:.9g}\n"
    return text


def test_coverage_csv_matches_reference(tmp_path):
    edge = WavenumberRegion(pairs=((0, 1, 12, 3),),
                            samples=np.column_stack([EDGE, -EDGE[::-1]])[None], freqs=-EDGE,
                            label="monostatic")
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
    edge = SignalRecord(channel=(0, 1, 12, 3), t0=-1e-5, fs=3e8, samples=samples)
    rng = np.random.default_rng(5)
    noisy = SignalRecord(channel=(2, 0, 1, 7), t0=1.2e-7, fs=123456789.5,
                         samples=(rng.standard_normal(49) + 1j * rng.standard_normal(49)) * 1e-3)
    for record in (edge, noisy):
        export_record_csv(record, tmp_path / "record.csv")
        assert (tmp_path / "record.csv").read_text() == reference_record_csv(record)
