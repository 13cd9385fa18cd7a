"""Scenario and domain types shared across the toolkit.

Units are SI throughout: meters, Hz, seconds, rad/m. All types are value
data; treat them as read-only after construction so they can be shared
freely across parallel workers. Terminal elements are (n, 2) float
arrays; ``channel_table`` orders the rows of records and coverage alike,
``pair_rows`` slices them by pair and ``element_rows`` maps them to their
stacked Tx and Rx elements, so a per-channel geometry term is one gather.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s, vacuum

SCENARIO_KEYS = (
    "terminals",
    "targets",
    "f0_hz",
    "bandwidth_hz",
    "noise_power",
    "sync_errors_s",
    "pairing",
    "seed",
)


class SchemaError(ValueError):
    """Scenario document does not match the documented JSON schema.

    ``path`` names the offending field, e.g. ``terminals[1].rx_elements``.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class Vec2:
    """2D point or vector: meters for positions, rad/m for wavenumbers."""

    x: float
    y: float

    def __array__(self, dtype=None, copy=None):
        return np.array([self.x, self.y], dtype=dtype or float)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


def distance(a: Vec2, b: Vec2) -> float:
    """Euclidean distance in meters."""
    return math.hypot(b.x - a.x, b.y - a.y)


@dataclass(frozen=True, eq=False)
class Terminal:
    """A sensing terminal: a phase center plus its Tx/Rx element positions,
    (n, 2) float arrays built from ``Vec2``s or [x, y] pairs, equal by value.

    Elements can represent a physical array or sampled positions of a
    synthetic aperture; the toolkit does not distinguish the two.
    """

    id: int
    phase_center: Vec2
    tx_elements: np.ndarray = ()
    rx_elements: np.ndarray = ()

    def __post_init__(self):
        for name in ("tx_elements", "rx_elements"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float).reshape(-1, 2))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Terminal):
            return NotImplemented
        return (self.id == other.id and self.phase_center == other.phase_center
                and np.array_equal(self.tx_elements, other.tx_elements)
                and np.array_equal(self.rx_elements, other.rx_elements))


@dataclass(frozen=True)
class PointTarget:
    """Isotropic point scatterer with complex reflectivity."""

    position: Vec2
    reflectivity: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "reflectivity", complex(self.reflectivity))


@dataclass(frozen=True, eq=False)
class AssociationMatrix:
    """Binary L-by-L matrix gating which Tx terminal / Rx terminal pairs
    take part in a simulation. Entry (l, k) = 1 pairs Tx terminal l with
    Rx terminal k; the diagonal holds the monostatic acquisitions.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "entries", np.asarray(self.entries, dtype=int)
        )

    @classmethod
    def identity(cls, n_terminals: int) -> "AssociationMatrix":
        """Monostatic-only pairing (the no-cooperation baseline)."""
        return cls(np.eye(n_terminals, dtype=int))

    @classmethod
    def full(cls, n_terminals: int) -> "AssociationMatrix":
        """All terminals transmit and receive: up to L^2 pairs."""
        return cls(np.ones((n_terminals, n_terminals), dtype=int))

    @classmethod
    def from_pairs(cls, n_terminals: int, pairs) -> "AssociationMatrix":
        """The pairing whose active (tx, rx) pairs are exactly ``pairs``."""
        entries = np.zeros((n_terminals, n_terminals), dtype=int)
        for l, k in pairs:
            entries[l, k] = 1
        return cls(entries)

    def is_active(self, tx: int, rx: int) -> bool:
        return bool(self.entries[tx, rx])

    def active_pairs(self) -> list[tuple[int, int]]:
        """Active (tx, rx) pairs in row-major order."""
        rows, cols = np.nonzero(self.entries)
        return list(zip(rows.tolist(), cols.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AssociationMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)


@dataclass(frozen=True)
class ImageGrid:
    """Uniform 2D pixel grid. ``origin`` is the center of pixel (0, 0),
    ``spacing`` is (dx, dy) in meters and ``size`` is (nx, ny) pixels.
    Pixel arrays are indexed [ix, iy].
    """

    origin: Vec2
    spacing: tuple[float, float]
    size: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "size", tuple(int(n) for n in self.size))
        nx, ny = self.size
        if not all(math.isfinite(s) and s > 0 for s in self.spacing):
            raise ValueError(f"grid spacing must be finite and positive, got {self.spacing}")
        if not self.origin.is_finite():
            raise ValueError(f"grid origin must be finite, got {self.origin}")
        if nx < 1 or ny < 1:
            raise ValueError("grid size must be at least 1x1")

    @property
    def x_coords(self) -> np.ndarray:
        return self.origin.x + self.spacing[0] * np.arange(self.size[0])

    @property
    def y_coords(self) -> np.ndarray:
        return self.origin.y + self.spacing[1] * np.arange(self.size[1])

    def pixel_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of pixel centers, each array shaped (nx, ny)."""
        return np.meshgrid(self.x_coords, self.y_coords, indexing="ij")

    def nearest_pixel(self, point: Vec2) -> tuple[int, int]:
        i = int(round((point.x - self.origin.x) / self.spacing[0]))
        j = int(round((point.y - self.origin.y) / self.spacing[1]))
        return (min(max(i, 0), self.size[0] - 1), min(max(j, 0), self.size[1] - 1))

    def reach(self, points) -> np.ndarray:
        """The (2, n) delays from each of n points to the nearest point of
        the rectangle spanned by the first and last pixel centres (row 0)
        and to its farthest corner (row 1), with a pixel delay map's ops in
        their order: square, add, sqrt, divide by c. Each op rounds
        monotonically, so row 0 is at most a point's least pixel delay and
        row 1 is its greatest bit for bit."""
        ex, ey = np.asarray(points, dtype=float).reshape(-1, 2).T
        (x0, x1), (y0, y1) = self.x_coords[[0, -1]], self.y_coords[[0, -1]]
        near = np.square(np.clip(ex, x0, x1) - ex) + np.square(np.clip(ey, y0, y1) - ey)
        far = (np.maximum(np.square(x0 - ex), np.square(x1 - ex))
               + np.maximum(np.square(y0 - ey), np.square(y1 - ey)))
        return np.sqrt([near, far]) / SPEED_OF_LIGHT


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete description of one networked sensing experiment.

    ``sync_errors`` holds the residual clock error in seconds between each
    Tx terminal l and Rx terminal k; it is honored by the simulator and
    never compensated downstream. ``rng_seed`` makes every noisy run
    reproducible.
    """

    terminals: tuple[Terminal, ...]
    targets: tuple[PointTarget, ...]
    f0: float
    bandwidth: float
    noise_power: float = 0.0
    sync_errors: np.ndarray | None = None
    pairing: AssociationMatrix | None = None
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "terminals", tuple(self.terminals))
        object.__setattr__(self, "targets", tuple(self.targets))
        n = len(self.terminals)
        if self.sync_errors is None:
            object.__setattr__(self, "sync_errors", np.zeros((n, n)))
        else:
            object.__setattr__(
                self, "sync_errors", np.asarray(self.sync_errors, dtype=float)
            )
        if self.pairing is None:
            object.__setattr__(self, "pairing", AssociationMatrix.identity(n))

    @property
    def n_terminals(self) -> int:
        return len(self.terminals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            self.terminals == other.terminals
            and self.targets == other.targets
            and self.f0 == other.f0
            and self.bandwidth == other.bandwidth
            and self.noise_power == other.noise_power
            and np.array_equal(self.sync_errors, other.sync_errors)
            and self.pairing == other.pairing
            and self.rng_seed == other.rng_seed
        )


def validate(scenario: Scenario) -> list[str]:
    """Check every scenario invariant and return the violations found.

    Total by design: never raises on any constructible Scenario, so that
    callers can report problems as data.
    """
    v: list[str] = []
    n = scenario.n_terminals

    if n == 0:
        v.append("scenario has no terminals")
    for idx, term in enumerate(scenario.terminals):
        if term.id != idx:
            v.append(f"terminal ids must be 0..L-1 in list order (got id {term.id} at index {idx})")
        if not len(term.tx_elements) and not len(term.rx_elements):
            v.append(f"terminal {term.id}: at least one element list must be non-empty")
        for name, elements in (("tx", term.tx_elements), ("rx", term.rx_elements)):
            for e in np.flatnonzero(~np.isfinite(elements).all(axis=1)).tolist():
                v.append(f"terminal {term.id}: {name} element {e} is not finite")
        if not term.phase_center.is_finite():
            v.append(f"terminal {term.id}: phase center is not finite")

    for t, target in enumerate(scenario.targets):
        if not target.position.is_finite():
            v.append(f"target {t}: position is not finite")
        if not np.isfinite(target.reflectivity):
            v.append(f"target {t}: reflectivity must be finite")
        elif not abs(target.reflectivity) > 0:
            v.append(f"target {t}: reflectivity magnitude must be positive")

    band = (("f0_hz", scenario.f0), ("bandwidth_hz", scenario.bandwidth))
    if not all(math.isfinite(value) for _, value in band):
        v.extend(f"{name} must be finite, got {value}" for name, value in band
                 if not math.isfinite(value))
    elif not scenario.bandwidth > 0:
        v.append("bandwidth must be positive")
    elif not scenario.f0 > scenario.bandwidth / 2:
        v.append("carrier f0 must exceed bandwidth/2")
    if not math.isfinite(scenario.noise_power):
        v.append(f"noise_power must be finite, got {scenario.noise_power}")
    elif scenario.noise_power < 0:
        v.append("noise power must be non-negative")

    if not scenario.rng_seed >= 0:
        v.append(f"seed must be non-negative, got {scenario.rng_seed}")

    if scenario.sync_errors.shape != (n, n):
        v.append(f"sync_errors must be {n}x{n}, got {scenario.sync_errors.shape}")
    elif not np.isfinite(scenario.sync_errors).all():
        v.append("sync_errors must be finite")
    if scenario.pairing.entries.shape != (n, n):
        v.append(f"pairing must be {n}x{n}, got {scenario.pairing.entries.shape}")
    else:
        bad = set(np.unique(scenario.pairing.entries)) - {0, 1}
        if bad:
            v.append(f"pairing entries must be 0 or 1, got {sorted(bad)}")
        pairs = scenario.pairing.active_pairs()
        if not pairs:
            v.append("no active pair")
        for l, k in pairs:
            if l < n and not len(scenario.terminals[l].tx_elements):
                v.append(f"pair ({l},{k}) active but terminal {l} has no tx elements")
            if k < n and not len(scenario.terminals[k].rx_elements):
                v.append(f"pair ({l},{k}) active but terminal {k} has no rx elements")
        # with a well-formed pairing: a target on an active element has no path nor direction
        for t, target in enumerate(scenario.targets if not bad else ()):
            at = [target.position.x, target.position.y]
            for name, side in (("tx", 0), ("rx", 1)):
                for l in sorted({pair[side] for pair in pairs}):
                    elements = (scenario.terminals[l].tx_elements, scenario.terminals[l].rx_elements)[side]
                    for e in np.flatnonzero((elements == at).all(axis=1)).tolist():
                        v.append(f"target {t} sits on terminal {l}'s {name} element {e}")

    return v


def channel_table(scenario: Scenario, pairs) -> np.ndarray:
    """The (C, 4) int (tx terminal, rx terminal, tx element, rx element)
    table of every channel of ``pairs``, pair by pair and each pair's rows
    row-major: the row order of ``synth.Records`` and ``WavenumberRegion``."""
    pairs = np.array(pairs, dtype=int).reshape(-1, 2)
    n_tx, n_rx = np.array([[len(scenario.terminals[l].tx_elements), len(scenario.terminals[k].rx_elements)]
                           for l, k in pairs.tolist()], dtype=int).reshape(-1, 2).T
    counts = n_tx * n_rx
    row = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)  # row within its pair
    return np.column_stack((np.repeat(pairs, counts, axis=0), *np.divmod(row, np.repeat(n_rx, counts))))


def pair_rows(channels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (P, 2) (tx, rx) terminal pairs of a (C, 4) channel table in row
    order, and each pair's first row. A pair starts where the terminals
    change, so its rows must be contiguous, as ``channel_table`` writes them."""
    new = np.ones(len(channels), dtype=bool)
    new[1:] = (channels[1:, :2] != channels[:-1, :2]).any(axis=1)
    return channels[new, :2], np.flatnonzero(new)


def element_rows(scenario: Scenario, channels: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(tx, rx, n, m)``: every terminal's Tx elements stacked in terminal
    order, (N, 2), its Rx elements likewise, (M, 2), and the (C,) rows of
    each channel's Tx element in ``tx`` and Rx element in ``rx``. A channel
    quantity that is a Tx-element term plus an Rx-element term is then one
    gather from each stack's per-element terms."""
    tx = [term.tx_elements for term in scenario.terminals]
    rx = [term.rx_elements for term in scenario.terminals]
    first_tx, first_rx = (np.cumsum([0, *map(len, side)]) for side in (tx, rx))  # each terminal's first row
    return (np.concatenate([np.empty((0, 2)), *tx]), np.concatenate([np.empty((0, 2)), *rx]),
            first_tx[channels[:, 0]] + channels[:, 2], first_rx[channels[:, 1]] + channels[:, 3])


# --- JSON scenario schema ---------------------------------------------------
#
# {
#   "terminals": [
#     {"id": 0, "phase_center": [x, y],
#      "tx_elements": [[x, y], ...], "rx_elements": [[x, y], ...]}
#   ],
#   "targets": [{"position": [x, y], "reflectivity": [re, im]}],
#   "f0_hz": 28e9,
#   "bandwidth_hz": 500e6,
#   "noise_power": 0.0,           optional, default 0
#   "sync_errors_s": [[...], ...] optional, default all-zero LxL
#   "pairing": [[...], ...]       optional, default identity (monostatic)
#   "seed": 0                     optional, default 0
# }
#
# "reflectivity" also accepts a plain number (zero imaginary part); "id"
# defaults to the list index and "phase_center" to the element centroid.


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_number(value, path: str) -> float:
    if not _is_number(value):
        raise SchemaError("expected a number", path)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError("integer beyond float range", path) from None


def _require_vec2(value, path: str) -> Vec2:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError("expected a [x, y] pair", path)
    return Vec2(_require_number(value[0], f"{path}[0]"), _require_number(value[1], f"{path}[1]"))


def _require_vec2s(values, path: str) -> np.ndarray:
    """The (n, 2) array of the [x, y] pairs listed at ``path``; a pair's
    own path is formatted only for a bad pair, which ``_require_vec2`` names."""
    if not isinstance(values, (list, tuple)):
        raise SchemaError("expected a list of [x, y] pairs", path)
    for i, e in enumerate(values):
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and _is_number(e[0]) and _is_number(e[1])):
            _require_vec2(e, f"{path}[{i}]")
    try:
        return np.array(values, dtype=float).reshape(-1, 2)
    except OverflowError:  # an integer beyond float range, which _require_number names
        for i, e in enumerate(values):
            _require_vec2(e, f"{path}[{i}]")
        raise

def _require_matrix(value, n: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(f"expected a {n}x{n} matrix", path)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"expected a row of {n} numbers", f"{path}[{i}]")
        rows.append([_require_number(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return np.asarray(rows)


def _parse_terminal(doc, index: int) -> Terminal:
    path = f"terminals[{index}]"
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", path)
    term_id = doc.get("id", index)
    if isinstance(term_id, bool) or not isinstance(term_id, int):
        raise SchemaError("expected an integer", f"{path}.id")
    tx = _require_vec2s(doc.get("tx_elements", []), f"{path}.tx_elements")
    rx = _require_vec2s(doc.get("rx_elements", []), f"{path}.rx_elements")
    if "phase_center" in doc:
        center = _require_vec2(doc["phase_center"], f"{path}.phase_center")
    else:
        xs, ys = np.concatenate((tx, rx)).T.tolist()
        if not xs:
            raise SchemaError("terminal has no elements and no phase_center", path)
        center = Vec2(sum(xs) / len(xs), sum(ys) / len(ys))
    return Terminal(id=term_id, phase_center=center, tx_elements=tx, rx_elements=rx)


def _parse_target(doc, index: int) -> PointTarget:
    path = f"targets[{index}]"
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", path)
    if "position" not in doc:
        raise SchemaError("missing required field", f"{path}.position")
    pos = _require_vec2(doc["position"], f"{path}.position")
    refl = doc.get("reflectivity", 1.0)
    if isinstance(refl, (list, tuple)):
        if len(refl) != 2:
            raise SchemaError("expected [re, im]", f"{path}.reflectivity")
        refl = complex(
            _require_number(refl[0], f"{path}.reflectivity[0]"),
            _require_number(refl[1], f"{path}.reflectivity[1]"),
        )
    else:
        refl = complex(_require_number(refl, f"{path}.reflectivity"), 0.0)
    return PointTarget(position=pos, reflectivity=refl)


def load_scenario(text: str) -> Scenario:
    """Parse JSON scenario text; see ``scenario_from_doc``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from err
    return scenario_from_doc(doc)


def scenario_from_doc(doc) -> Scenario:
    """Build a scenario from a parsed JSON document, filling documented
    defaults. Raises SchemaError naming the offending field if malformed."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")

    for key in doc:
        if key not in SCENARIO_KEYS:
            raise SchemaError(f"unknown key (expected one of {', '.join(SCENARIO_KEYS)})", key)
    for key in ("terminals", "targets", "f0_hz", "bandwidth_hz"):
        if key not in doc:
            raise SchemaError("missing required field", key)
    if not isinstance(doc["terminals"], list) or not doc["terminals"]:
        raise SchemaError("expected a non-empty list", "terminals")
    if not isinstance(doc["targets"], list):
        raise SchemaError("expected a list", "targets")

    terminals = tuple(_parse_terminal(t, i) for i, t in enumerate(doc["terminals"]))
    targets = tuple(_parse_target(t, i) for i, t in enumerate(doc["targets"]))
    n = len(terminals)

    f0 = _require_number(doc["f0_hz"], "f0_hz")
    bandwidth = _require_number(doc["bandwidth_hz"], "bandwidth_hz")
    noise_power = _require_number(doc.get("noise_power", 0.0), "noise_power")
    # absent matrices are left to Scenario's defaults
    sync = _require_matrix(doc["sync_errors_s"], n, "sync_errors_s") if "sync_errors_s" in doc else None
    pairing = None
    if "pairing" in doc:
        pairing = _require_matrix(doc["pairing"], n, "pairing")
        if len(bad := np.argwhere((pairing != 0) & (pairing != 1))):
            i, j = bad[0].tolist()
            raise SchemaError(f"expected 0 or 1, got {pairing[i, j]:g}", f"pairing[{i}][{j}]")
        pairing = AssociationMatrix(pairing)
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError("expected an integer", "seed")

    return Scenario(
        terminals=terminals,
        targets=targets,
        f0=f0,
        bandwidth=bandwidth,
        noise_power=noise_power,
        sync_errors=sync,
        pairing=pairing,
        rng_seed=seed,
    )

