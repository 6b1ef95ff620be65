"""Command-line driver: synthesize datasets, analyze them, inspect files.

Commands
--------
synth     generate a seeded synthetic dataset directory
analyze   run the full pipeline (ingest, features, pairwise session tests)
          and write table/figure artifacts into an output directory
features  print the feature vector of a single SVC file as JSON

``analyze`` uses no randomness: its outputs are a pure function of the
input files and flags.  All randomness in ``synth`` flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import (MAX_SUBJECT_ID, Dataset, DeviceProfile, load_dataset, read_svc,
                   write_dataset, Recording)
from .features import extract_features
from .report import (FEATURES, aggregate, render_fig_data_csv, render_table1_csv,
                     render_table1_json, render_table2_csv, render_table2_json,
                     significant_labels)
from .stats import DEFAULT_EXACT_THRESHOLD, TestResult, pairwise_session_tests
from .synth import SynthConfig, generate_dataset

ANALYZE_OUTPUTS = ("table1.csv", "table1.json", "table2.csv", "table2.json",
                   "fig4_data.csv", "fig5_data.csv")

_FORMAT_HELP = """\
SVC file format (all columns integers):
    line 1:        N                 number of samples, at least 1
    lines 2..N+1:  x y timestamp pen_status azimuth altitude pressure
Tokens are ASCII integers [+-]?[0-9]+ that fit int64, separated by spaces or
tabs; lines end in LF or CRLF; blank lines are ignored.
pen_status is 0 (up) or 1 (down); pressure lies in [0, max pressure level];
timestamps are non-decreasing.

Dataset directory layout:
    root/subject<NN>/session<S>/task<T>.svc
with NN = 01..99 (zero-padded), S = 1..5, T = 1..9.  Missing files are
treated as absent recordings, not errors.
"""


def _int_flag(low: int | None = None, high: int | None = None):
    """argparse ``type=`` for an integer flag in ``[low, high]`` (either end
    open when None); a value outside it exits with status 2 before any work."""
    def parse(text: str) -> int:
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


def _probability(text: str) -> float:
    """argparse ``type=`` for a significance level in the open interval (0, 1)."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


_probability.__name__ = "float"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def analyze_dataset(dataset: Dataset, feature: str = "saturation_ratio",
                    alpha: float = 0.05,
                    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                    ) -> tuple[dict[str, str], list[TestResult], list[str]]:
    """The full analysis pipeline on an in-memory dataset.

    Returns the rendered artifact texts keyed by output file name, the raw
    pairwise test results, and the per-task significance summary lines.
    ``feature`` selects what the session comparisons are run on; table1 and
    fig5 always describe mean pressure, fig4 always saturation.
    """
    if feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}, expected one of {FEATURES}")
    grid_sat = aggregate(dataset, "saturation_ratio")
    grid_mp = aggregate(dataset, "mean_pressure")
    tested_grid = grid_sat if feature == "saturation_ratio" else grid_mp
    results = pairwise_session_tests(tested_grid.values_by_cell(),
                                     exact_threshold=exact_threshold)
    table2 = render_table2_json(results, alpha=alpha)
    outputs = {
        "table1.csv": render_table1_csv(grid_mp),
        "table1.json": _json_text(render_table1_json(grid_mp)),
        "table2.csv": render_table2_csv(results, alpha=alpha),
        "table2.json": _json_text(table2),
        "fig4_data.csv": render_fig_data_csv(grid_sat),
        "fig5_data.csv": render_fig_data_csv(grid_mp),
    }
    summary = []
    for row in table2["rows"]:
        flagged = significant_labels(row)
        if flagged:
            summary.append(f"task {row['task']}: significant (p < {alpha:g}): "
                           f"{', '.join(flagged)}")
        else:
            summary.append(f"task {row['task']}: no significant pairs at alpha={alpha:g}")
    return outputs, results, summary


def _check_output_dir(outdir: Path) -> None:
    """Refuse, before any work, an output directory that cannot be created
    because ``outdir`` or its nearest existing ancestor is not a directory."""
    existing = next((p for p in (outdir, *outdir.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise NotADirectoryError(f"{existing}: not a directory")


def cmd_synth(args: argparse.Namespace) -> int:
    # Stale recordings left in the directory would merge into the next analyze.
    outdir = Path(args.output)
    _check_output_dir(outdir)
    if outdir.is_dir() and any(outdir.iterdir()):
        print(f"error: {outdir}: output directory is not empty", file=sys.stderr)
        return 1
    config = SynthConfig(
        n_subjects=args.subjects,
        samples_per_recording=args.samples,
        seed=args.seed,
        device=DeviceProfile(max_level=args.sat_level),
    )
    dataset = generate_dataset(config)
    write_dataset(dataset, outdir)
    print(_json_text(config.to_json_dict()), end="")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    outdir = Path(args.output)
    _check_output_dir(outdir)
    # A failed run must not leave the previous run's artifacts looking fresh.
    for name in ANALYZE_OUTPUTS:
        (outdir / name).unlink(missing_ok=True)
    dataset = load_dataset(args.input, DeviceProfile(max_level=args.sat_level))
    if len(dataset) == 0:
        print(f"error: no recordings found under {args.input}", file=sys.stderr)
        return 1
    outputs, results, summary = analyze_dataset(
        dataset, feature=args.feature, alpha=args.alpha,
        exact_threshold=args.exact_threshold)
    if results and max(r.n_a for r in results) < 2:
        print("warning: fewer than 2 subjects per cell, p-values are degenerate",
              file=sys.stderr)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        (outdir / name).write_text(text, newline="\n")
    for line in summary:
        print(line)
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    device = DeviceProfile(max_level=args.sat_level)
    samples = read_svc(args.input, device)
    # Identity fields are irrelevant for single-file inspection.
    recording = Recording(1, 1, 1, samples, device)
    fv = extract_features(recording, pen_down_only=args.pen_down_only)

    def abs_summary(series: np.ndarray) -> dict:
        a = np.abs(series)
        return {"min": float(a.min()), "max": float(a.max()), "mean": float(a.mean())}

    print(_json_text({
        "n_samples": fv.n_samples,
        "saturation_ratio": fv.saturation_ratio,
        "mean_pressure": fv.mean_pressure,
        "speed_x_abs": abs_summary(fv.speed_x),
        "speed_y_abs": abs_summary(fv.speed_y),
        "sat_level": device.max_level,
    }), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwfatigue",
        description="Pressure-saturation fatigue analysis for online handwriting.",
        epilog=_FORMAT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, func) -> argparse.ArgumentParser:
        """A subcommand with the format reference and the device ceiling flag."""
        p = sub.add_parser(name, help=summary, epilog=_FORMAT_HELP,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--sat-level", type=int, default=1023,
                       help="device max pressure level (default 1023)")
        p.set_defaults(func=func)
        return p

    p_synth = command("synth", "generate a synthetic dataset directory", cmd_synth)
    p_synth.add_argument("--output", required=True,
                         help="dataset directory to create; must be absent or empty")
    p_synth.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p_synth.add_argument("--subjects", type=_int_flag(low=1, high=MAX_SUBJECT_ID),
                         default=21,
                         help="number of subjects, 1..99 (default 21)")
    p_synth.add_argument("--samples", type=_int_flag(low=1), default=2000,
                         help="samples per recording, at least 1 (default 2000)")

    p_analyze = command("analyze", "run the analysis pipeline over a dataset directory",
                        cmd_analyze)
    p_analyze.add_argument("--input", required=True, help="dataset root directory")
    p_analyze.add_argument("--output", required=True, help="directory for result files")
    p_analyze.add_argument("--alpha", type=_probability, default=0.05,
                           help="significance threshold, in (0, 1) (default 0.05)")
    p_analyze.add_argument("--exact-threshold", type=_int_flag(low=0),
                           default=DEFAULT_EXACT_THRESHOLD,
                           help="max pooled size for the exact test, at least 0; "
                                "pooled sizes above 64 always use the normal "
                                "approximation (default 25)")
    p_analyze.add_argument("--feature", choices=FEATURES, default="saturation_ratio",
                           help="feature the session comparisons run on")

    p_features = command("features", "print the feature vector of one SVC file",
                         cmd_features)
    p_features.add_argument("--input", required=True, help="SVC file path")
    p_features.add_argument("--pen-down-only", action="store_true",
                            help="restrict features to pen-down samples")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # SvcParseError and DatasetError included
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
