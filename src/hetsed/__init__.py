"""Heterogeneous-dataset sound event detection toolkit.

Library + CLI covering the non-neural-training substance of a two-dataset
SED pipeline: log-mel feature extraction, frequency-wise MixStyle and
residual normalization, frequency-dynamic convolution (forward), dataset-
masked losses with mean-teacher machinery, sound-event-bounding-box
post-processing, and PSDS / mPAUC evaluation with synthetic fixtures.
"""

from .core import (
    ClassOrigin,
    ClassVocabulary,
    ClipMetadata,
    Event,
    EventTable,
    MaskMode,
    Origin,
    Posteriorgram,
    build_vocabulary,
    canonicalize_events,
    class_mask,
    default_vocabulary,
)

__version__ = "0.1.0"

__all__ = [
    "ClassOrigin",
    "ClassVocabulary",
    "ClipMetadata",
    "Event",
    "EventTable",
    "MaskMode",
    "Origin",
    "Posteriorgram",
    "build_vocabulary",
    "canonicalize_events",
    "class_mask",
    "default_vocabulary",
    "__version__",
]
