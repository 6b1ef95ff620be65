"""Pressure-saturation and kinematic analysis of online handwriting.

Parses digitizer tablet recordings, computes per-recording features
(pressure saturation ratio, mean pressure, discrete speed), aggregates them
across subjects per task and session, and tests inter-session differences
with two-sided Wilcoxon rank-sum statistics.  A seeded synthetic generator
produces campaign-shaped datasets for end-to-end runs.
"""

from .data import (COL_ALTITUDE, COL_AZIMUTH, COL_PEN_STATUS, COL_PRESSURE,
                   COL_TIMESTAMP, COL_X, COL_Y, Dataset, DatasetError,
                   DeviceProfile, PenStatus, Recording, SESSIONS,
                   SvcParseError, TASKS, load_dataset, parse_svc,
                   recording_path, serialize_svc, write_dataset)
from .features import (FeatureVector, extract_features, first_difference,
                       level_to_force, mean_pressure, saturation_ratio)
from .report import (FEATURES, FeatureGrid, SessionTaskSummary, aggregate,
                     recording_feature, render_fig_data_csv,
                     render_fig_data_json, render_table1_csv,
                     render_table1_json, render_table2_csv, render_table2_json)
from .stats import (DEFAULT_EXACT_THRESHOLD, RankSumResult, SESSION_PAIRS,
                    TestResult, midranks, pairwise_session_tests, ranksum,
                    ranksum_exact, ranksum_normal)
from .synth import SynthConfig, generate_dataset, generate_recording

__version__ = "0.1.0"

__all__ = [
    "COL_ALTITUDE", "COL_AZIMUTH", "COL_PEN_STATUS", "COL_PRESSURE",
    "COL_TIMESTAMP", "COL_X", "COL_Y", "Dataset", "DatasetError",
    "DeviceProfile", "PenStatus", "Recording", "SESSIONS",
    "SvcParseError", "TASKS", "load_dataset", "parse_svc", "recording_path",
    "serialize_svc", "write_dataset",
    "FeatureVector", "extract_features", "first_difference", "level_to_force",
    "mean_pressure", "saturation_ratio",
    "FEATURES", "FeatureGrid", "SessionTaskSummary", "aggregate",
    "recording_feature", "render_fig_data_csv", "render_fig_data_json",
    "render_table1_csv", "render_table1_json", "render_table2_csv",
    "render_table2_json",
    "DEFAULT_EXACT_THRESHOLD", "RankSumResult", "SESSION_PAIRS", "TestResult",
    "midranks", "pairwise_session_tests", "ranksum", "ranksum_exact",
    "ranksum_normal",
    "SynthConfig", "generate_dataset", "generate_recording",
    "__version__",
]
