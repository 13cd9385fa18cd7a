"""Combination of per-pair images under the cooperation options.

Incoherent fusion sums weighted magnitudes of monostatic images: no
mutual clock/phase synchronization is needed and the gain is in SNR, not
resolution. Coherent fusion sums the weighted complex images (monostatic
or multistatic), enlarging the combined spectral support and hence the
resolution. Residual synchronization errors baked into the records are
honored, never compensated: a badly synchronized network produces the
defocused fused image it deserves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import ComplexImage


@dataclass(frozen=True)
class FusionWeights:
    """Non-negative weight per image provenance key.

    Keys are (tx terminal, rx terminal) pairs or fusion labels. What the
    optimal weights are is left to the caller; uniform 1/N is the
    default used when no weights are given.
    """

    values: dict

    def __post_init__(self):
        if not self.values:
            raise ValueError("weights must not be empty")
        if any(w < 0 for w in self.values.values()):
            raise ValueError("weights must be non-negative")
        if not any(w > 0 for w in self.values.values()):
            raise ValueError("at least one weight must be positive")

    @classmethod
    def uniform(cls, images: list[ComplexImage]) -> "FusionWeights":
        return cls({im.provenance: 1.0 / len(images) for im in images})

    def get(self, key) -> float:
        try:
            return self.values[key]
        except KeyError:
            raise ValueError(f"no weight for image {key!r}") from None


def _check_common_grid(images: list[ComplexImage]) -> None:
    if not images:
        raise ValueError("no images to fuse")
    if any(im.grid != images[0].grid for im in images[1:]):
        raise ValueError("images do not share a common grid")


def _weighted_sum(images: list[ComplexImage], weights: FusionWeights | None,
                  term, provenance: str) -> ComplexImage:
    """Sum of ``term(pixels)`` weighted per image, on the checked common grid."""
    if weights is None:
        weights = FusionWeights.uniform(images)
    out = np.zeros(images[0].grid.size, dtype=complex)
    for im in images:
        out += weights.get(im.provenance) * term(im.pixels)
    return ComplexImage(grid=images[0].grid, pixels=out, provenance=provenance)


def fuse_incoherent(images: list[ComplexImage], weights: FusionWeights | None = None) -> ComplexImage:
    """Weighted sum of image magnitudes (phases discarded).

    Only monostatic images are accepted: magnitude images carry base-band
    spectral content only, so mixing in bistatic magnitudes has no
    defined coverage interpretation here. Output pixels are real-valued.
    """
    _check_common_grid(images)
    for im in images:
        prov = im.provenance
        if not (isinstance(prov, tuple) and prov[0] == prov[1]):
            raise ValueError(
                f"incoherent fusion combines monostatic images only, got {prov!r}"
            )
    return _weighted_sum(images, weights, np.abs, "fused:inc")


def fuse_coherent(images: list[ComplexImage], weights: FusionWeights | None = None) -> ComplexImage:
    """Weighted pixel-wise complex sum of images on a common grid."""
    _check_common_grid(images)
    return _weighted_sum(images, weights, lambda pixels: pixels, "fused:coh")
