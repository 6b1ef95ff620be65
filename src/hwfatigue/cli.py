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

# No command calls generate_dataset or write_dataset; they stay bound here
# because perfbench's tracer patches them by these module names.
from .data import (MAX_SUBJECT_ID, Dataset, DatasetError, DeviceProfile, _int_in,
                   _recording, load_dataset, read_svc, write_dataset)
from .features import extract_features
from .report import (DEFAULT_ALPHA, DEFAULT_FEATURE, FEATURES, _check_alpha, _check_feature,
                     aggregate, render_fig_data_csv, render_table1_csv, render_table1_json,
                     render_table2_csv, render_table2_json, significant_labels)
from .stats import DEFAULT_EXACT_THRESHOLD, TestResult, pairwise_session_tests
from .synth import SynthConfig, generate_dataset, write_synthetic

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


def _flag(convert, check, *args, **kwargs):
    """argparse ``type=``: the library's ``check(*args, convert(text), **kwargs)``,
    whose ValueError, like one from ``convert``, exits with status 2 before any work."""
    def parse(text: str):
        value = convert(text)  # its ValueError reads "invalid <convert> value"
        try:
            return check(*args, value, **kwargs)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    parse.__name__ = convert.__name__
    return parse


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def analyze_dataset(dataset: Dataset, feature: str = DEFAULT_FEATURE,
                    alpha: float = DEFAULT_ALPHA,
                    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                    ) -> tuple[dict[str, str], list[TestResult], list[str]]:
    """The full analysis pipeline on an in-memory dataset.

    Returns the rendered artifact texts keyed by output file name, the raw
    pairwise test results, and the per-task significance summary lines.
    ``feature`` selects what the session comparisons are run on; table1 and
    fig5 always describe mean pressure, fig4 always saturation.  An unknown
    ``feature`` or an ``alpha`` outside (0, 1) is refused before any work.
    """
    _check_feature(feature)
    _check_alpha(alpha)
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
        raise FileExistsError(f"{outdir}: output directory is not empty")
    config = SynthConfig(n_subjects=args.subjects, samples_per_recording=args.samples,
                         seed=args.seed, device=args.device)
    write_synthetic(config, outdir)
    print(_json_text(config.to_json_dict()), end="")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    outdir = Path(args.output)
    _check_output_dir(outdir)
    # A failed run must not leave the previous run's artifacts looking fresh.
    for name in ANALYZE_OUTPUTS:
        (outdir / name).unlink(missing_ok=True)
    dataset = load_dataset(args.input, args.device)
    if len(dataset) == 0:
        raise DatasetError(f"no recordings found under {args.input}")
    outputs, _, summary = analyze_dataset(dataset, feature=args.feature, alpha=args.alpha,
                                          exact_threshold=args.exact_threshold)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        (outdir / name).write_text(text, newline="\n")
    for line in summary:
        print(line)
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    # read_svc checked the array; the identity fields are irrelevant here.
    recording = _recording(1, 1, 1, read_svc(args.input, args.device), args.device)
    try:
        fv = extract_features(recording, pen_down_only=args.pen_down_only)
    except ValueError as err:  # no pen-down sample under --pen-down-only
        raise ValueError(f"{args.input}: {err}") from None

    def abs_summary(series: np.ndarray) -> dict | None:  # None: one sample, no speed
        a = np.abs(series)
        return {"min": float(a.min()), "max": float(a.max()),
                "mean": float(a.mean())} if a.size else None

    print(_json_text({
        "n_samples": fv.n_samples,
        "saturation_ratio": fv.saturation_ratio,
        "mean_pressure": fv.mean_pressure,
        "speed_x_abs": abs_summary(fv.speed_x),
        "speed_y_abs": abs_summary(fv.speed_y),
        "sat_level": args.device.max_level,
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
        p.add_argument("--sat-level", type=_flag(int, DeviceProfile), dest="device",
                       default=DeviceProfile(), metavar="SAT_LEVEL",
                       help="device max pressure level, at least 1 "
                            f"(default {DeviceProfile().max_level})")
        p.set_defaults(func=func)
        return p

    p_synth = command("synth", "generate a synthetic dataset directory", cmd_synth)
    p_synth.add_argument("--output", required=True,
                         help="dataset directory to create; must be absent or empty")
    p_synth.add_argument("--seed", type=int, default=SynthConfig.seed,
                         help="generator seed (default %(default)s)")
    p_synth.add_argument("--subjects", default=SynthConfig.n_subjects,
                         type=_flag(int, _int_in, "n_subjects", low=1, high=MAX_SUBJECT_ID),
                         help=f"number of subjects, 1..{MAX_SUBJECT_ID} (default %(default)s)")
    p_synth.add_argument("--samples", default=SynthConfig.samples_per_recording,
                         type=_flag(int, _int_in, "samples_per_recording", low=1),
                         help="samples per recording, at least 1 (default %(default)s)")

    p_analyze = command("analyze", "run the analysis pipeline over a dataset directory",
                        cmd_analyze)
    p_analyze.add_argument("--input", required=True, help="dataset root directory")
    p_analyze.add_argument("--output", required=True, help="directory for result files")
    p_analyze.add_argument("--alpha", type=_flag(float, _check_alpha), default=DEFAULT_ALPHA,
                           help="significance threshold, in (0, 1) (default %(default)s)")
    p_analyze.add_argument("--exact-threshold", default=DEFAULT_EXACT_THRESHOLD,
                           type=_flag(int, _int_in, "exact_threshold", low=0),
                           help="max pooled size for the exact test, at least 0; "
                                "pooled sizes above 64 always use the normal "
                                "approximation (default %(default)s)")
    p_analyze.add_argument("--feature", choices=FEATURES, default=DEFAULT_FEATURE,
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
