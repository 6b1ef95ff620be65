"""Pressure-saturation and kinematic analysis of online handwriting.

Parses digitizer tablet recordings, computes per-recording features
(pressure saturation ratio, mean pressure, discrete speed), aggregates them
across subjects per task and session, and tests inter-session differences
with two-sided Wilcoxon rank-sum statistics.  A seeded synthetic generator
produces campaign-shaped datasets for end-to-end runs.
"""

from .data import (Dataset, Recording, load_dataset, parse_svc, read_svc,
                   serialize_svc, write_dataset)
from .features import extract_features
from .report import aggregate
from .stats import pairwise_session_tests
from .synth import SynthConfig, generate_dataset

__version__ = "0.1.0"

__all__ = [
    "SynthConfig", "generate_dataset", "aggregate", "pairwise_session_tests",
    "extract_features",
    "Dataset", "Recording", "parse_svc", "read_svc", "serialize_svc",
    "load_dataset", "write_dataset",
    "__version__",
]
