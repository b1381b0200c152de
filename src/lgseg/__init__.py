"""Dual local-global patch segmentation for aerial imagery, desk scale.

Submodules: engine (layers/optimiser/checkpoints), network (the dual-pathway
model and training), raster (PGM/PPM and sidecar I/O), sampling (triplets,
grid tiling, residential rule), synth (scene generator), evaluation (relaxed
precision/recall), tree (classifier-tree filter), counting (morphology and
box matching), config and cli (the pipeline executable).
"""

__version__ = "0.1.0"

from .network import LgSegModel, PathwaySpec, TrainConfig, build_model, patch_loss, train  # noqa: F401
from .sampling import PatchTriplet, sample_triplets  # noqa: F401
from .synth import SceneSpec, synth_scene  # noqa: F401
