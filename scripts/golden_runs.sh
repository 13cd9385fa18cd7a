#!/bin/sh
# One documented command line per figure-class experiment. Outputs land
# under out/ (override with NETRAD_OUT or --out).
set -e
cd "$(dirname "$0")/.."
OUT=${NETRAD_OUT:-out}

# Without an installed netrad, run the package of this checkout.
if ! command -v netrad >/dev/null 2>&1; then
    netrad() { PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m netrad.cli "$@"; }
fi

# Single-terminal image and its wavenumber coverage (no cooperation).
netrad coverage --scenario scenarios/lane_single_terminal.json --out "$OUT/mono_coverage"
netrad image    --scenario scenarios/lane_single_terminal.json --out "$OUT/mono_image"

# Incoherent vs coherent fusion of the five monostatic lane images.
# Incoherent fusion keeps the single-terminal 0.30 m resolution; its
# reference artifacts are on a 0.075 m grid (the default would be 0.070 m).
netrad fuse --mode incoherent --pairs mono --scenario scenarios/lane_multistatic.json --grid-spacing 0.075 --out "$OUT/fuse_incoherent"
netrad fuse --mode coherent   --pairs mono --scenario scenarios/lane_multistatic.json --out "$OUT/fuse_coherent_mono"

# Full multistatic coherent fusion (all 25 pairs) and its coverage.
netrad coverage --scenario scenarios/lane_multistatic.json --out "$OUT/multi_coverage"
netrad fuse --mode coherent --pairs all --scenario scenarios/lane_multistatic.json --out "$OUT/fuse_multistatic"

# Orchestration: four tessellated 100 MHz acquisitions quadruple the
# range resolution of the single narrowband terminal. The plan predicts
# rho_x 0.037 m, so its image takes a 0.01 m pitch (121x121) to resolve
# the mainlobe.
netrad image --scenario scenarios/lane_base_100mhz.json --grid-spacing 0.09 --out "$OUT/orchestration_single"
netrad orchestrate --L 4 --scenario scenarios/lane_base_100mhz.json --grid-spacing 0.01 --grid-margin-cells 60 --out "$OUT/orchestration"

# Opposite-side guideline: illuminator above the scene, users below;
# bistatic pairs carry (nearly) no resolution along y.
netrad coverage --scenario scenarios/opposite_side.json --out "$OUT/opposite_coverage"
netrad fuse --mode coherent --pairs all --scenario scenarios/opposite_side.json --grid-spacing 0.075 --out "$OUT/opposite_fused"

echo "golden runs complete: $OUT"
