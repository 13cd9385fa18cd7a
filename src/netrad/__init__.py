"""netrad: networked radio sensing simulation and analysis.

Predict imaging performance from wavenumber (spectral) coverage,
simulate multistatic radar signals for point-target scenes, form images
by back-projection, fuse them coherently or incoherently, and plan
orchestrated acquisitions by wavenumber tessellation.
"""

from .scene import (
    SPEED_OF_LIGHT,
    AssociationMatrix,
    ImageGrid,
    PointTarget,
    Scenario,
    SchemaError,
    Terminal,
    Vec2,
    load_scenario,
    scenario_to_json,
    validate,
)
from .wavenumber import (
    ResolutionEstimate,
    WavenumberRegion,
    WavenumberTile,
    aperture_for_cross_range,
    bistatic_loss,
    composite_wavenumber,
    convex_hull,
    coverage_region,
    coverage_segment,
    polygon_area,
    predicted_resolution,
    unit_wavevectors,
)
from .synth import (
    SignalRecord,
    apply_rcs,
    bistatic_delay,
    default_sample_rate,
    suggest_window,
    synthesize,
)
from .imaging import (
    ComplexImage,
    default_grid,
    pair_images,
    point_spread,
)
from .fusion import FusionWeights, fuse_coherent, fuse_incoherent
from .metrics import ImageMetrics, compute_metrics, peak_snr
from .orchestrate import (
    OrchestrationPlan,
    angles_to_positions,
    plan,
    tessellated_plan,
    tessellation_angles,
)

__version__ = "0.1.0"
