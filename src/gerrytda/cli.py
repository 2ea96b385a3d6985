"""Command-line interface.

Every subcommand accepts --config <path> pointing at a key=value text file;
explicit flags win over config values, which win over defaults. Keys use the
flag names with dashes or underscores interchangeably. A key may name an
option of any command, so one file can serve several; a key that names none
is an error. A config value meets the same choices and type as its flag,
checked before any input is read.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .compactness import paired_t_test, score_units, scores_to_csv
from .compare import bottleneck, distance_matrix, matrix_to_csv, wasserstein
from .errors import GerryTdaError, IngestError, ParameterError
from .geometry import UnitKind
from .ingest import parse_geojson, to_geojson
from .persistence import levelset_barcode, read_barcode_json
from .raster import MarginMode, margin_field, rasterize, write_margin_pgm
from .report import AnalysisConfig, _load_layer, check_year, run_year, write_outputs
from .complexes import uniform_schedule


# each option's value when neither a flag nor the config file sets it: the
# pipeline's from AnalysisConfig, then the options that only the CLI has
DEFAULTS = {f.name: f.default for f in fields(AnalysisConfig) if f.default is not MISSING}
DEFAULTS.update(year="year", dim=1, metric="polsby_popper", no_snapshots=False)


def _read_text(path: str) -> str:
    """A file's text, less a leading BOM; bytes that are not UTF-8 are an
    IngestError naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8: {exc}") from None


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, tuple[str, int]] = {}  # each key's value, and the line that sets it
    for n, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"config line {n}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in cfg:
            raise ParameterError(f"config line {n}: {key} is already set on line {cfg[key][1]}")
        cfg[key] = value.strip(), n
    return {key: value for key, (value, _) in cfg.items()}


def flag(text: str) -> bool:
    """A config value for an on/off option: 1 or 0."""
    if text not in ("0", "1"):
        raise ValueError(text)
    return text == "1"


def _dim(dim: int) -> int:
    """The --dim option; barcodes have bars in dimensions 0, 1 and 2 only."""
    if dim not in (0, 1, 2):
        raise ParameterError(f"--dim must be 0, 1 or 2, got {dim}")
    return dim


def _config_value(action: argparse.Action, text: str):
    """A config file's text for one option, checked as its flag is: the
    option's choices, then its type (flag for an on/off option)."""
    if action.choices is not None and text not in action.choices:
        raise ParameterError(f"{action.option_strings[0]} must be "
                             f"{' or '.join(action.choices)}, got {text!r}")
    convert = flag if action.nargs == 0 else action.type or str
    try:
        return convert(text)
    except ValueError:
        raise ParameterError(f"config key {action.dest}: {text!r} is not "
                             f"a valid {convert.__name__}") from None


def _fill_options(args: argparse.Namespace) -> None:
    """Set each of the command's options that no flag set: from the config
    file, else from DEFAULTS; then check that the required ones are set."""
    cfg = _read_config(args.config) if args.config else {}
    for key in cfg:
        if key not in args.config_keys:
            raise ParameterError(f"config key {key}: no command has an option "
                                 f"--{key.replace('_', '-')}")
    for dest, action in args.config_keys.items():
        if dest in vars(args) and getattr(args, dest) is None:
            setattr(args, dest, _config_value(action, cfg[dest]) if dest in cfg
                    else DEFAULTS.get(dest))
    for dest in args.required:
        if getattr(args, dest) is None:
            raise ParameterError(f"missing required option --{dest.replace('_', '-')}")


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    p.add_argument("--config", help="key=value config file")
    if "geo" in names:
        p.add_argument("--geo", help="GeoJSON FeatureCollection path")
    if "votes" in names:
        p.add_argument("--votes", help="votes CSV path (unit_id,dem_votes,rep_votes)")
    if "district" in names:
        p.add_argument("--district-geo", dest="district_geo")
        p.add_argument("--district-votes", dest="district_votes")
    if "raster" in names:
        p.add_argument("--width", type=int, help="raster width in pixels")
        p.add_argument("--mode", choices=["relative", "density"], help="margin mode")
    if "levels" in names:
        p.add_argument("--levels", type=int, help="sweep level count")
        p.add_argument("--max-margin", dest="max_margin", type=float,
                       help="top sweep threshold")
        p.add_argument("--polarity", choices=["democratic", "republican"],
                       help="sweep polarity")
    if "dim" in names:
        p.add_argument("--dim", type=int, help="homology dimension")
    if "out" in names:
        p.add_argument("--out", help="output path")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _field(args: argparse.Namespace):
    units, _ = _load_layer(args.geo, args.votes, UnitKind.PRECINCT)
    return margin_field(rasterize(units, args.width), units, MarginMode(args.mode))


def _cmd_ingest(args: argparse.Namespace) -> int:
    units, report = _load_layer(args.geo, args.votes, UnitKind.PRECINCT)
    doc = to_geojson(units)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, sort_keys=True))
    summary = {"matched": report.matched, "filled_missing": report.filled_missing,
               "orphan_vote_rows": list(report.orphan_vote_rows),
               "units": len(units)}
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_rasterize(args: argparse.Namespace) -> int:
    write_margin_pgm(_field(args), args.out)
    return 0


def _cmd_barcode(args: argparse.Namespace) -> int:
    schedule = uniform_schedule(args.levels, args.max_margin)
    bc = levelset_barcode(_field(args), schedule, args.polarity)
    _emit(bc.dumps() + "\n", args.out)
    return 0


def _read_barcode_file(path: str) -> dict[int, list[tuple[float, float]]]:
    text = _read_text(path)
    try:
        return read_barcode_json(text)[0]
    except IngestError as exc:
        raise IngestError(f"{path}: {exc}") from None


def _cmd_compare(args: argparse.Namespace) -> int:
    dim = _dim(args.dim)
    diagrams = [_read_barcode_file(p) for p in (args.barcode_a, args.barcode_b)]
    a = diagrams[0].get(dim, [])
    b = diagrams[1].get(dim, [])

    def enc(x: float):
        return "inf" if math.isinf(x) else x

    doc = {"dim": dim, "bottleneck": enc(bottleneck(a, b)),
           "wasserstein_1": enc(wasserstein(a, b, p=1)),
           "wasserstein_2": enc(wasserstein(a, b, p=2))}
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_compactness(args: argparse.Namespace) -> int:
    units = parse_geojson(Path(args.geo).read_bytes(), kind=UnitKind.DISTRICT)
    _emit(scores_to_csv(score_units(units)), args.out)
    return 0


def _read_scores_csv(path: str, metric: str) -> list[float]:
    rows = csv.reader(io.StringIO(_read_text(path).strip(), newline=""))
    try:
        header = [cell.strip() for cell in next(rows, [])]
        if metric not in header:
            raise ParameterError(f"{path}: no column {metric!r}")
        col = header.index(metric)
        scores = []
        for row in rows:
            try:
                score = float(row[col])
            except (IndexError, ValueError):
                score = math.nan
            if not math.isfinite(score):
                raise IngestError(f"{path}: line {rows.line_num}: "
                                  f"no number in column {metric!r}")
            scores.append(score)
    except csv.Error as exc:
        raise IngestError(f"{path}: line {rows.line_num}: {exc}") from None
    return scores


def _cmd_ttest(args: argparse.Namespace) -> int:
    a = _read_scores_csv(args.scores_a, args.metric)
    b = _read_scores_csv(args.scores_b, args.metric)
    res = paired_t_test(a, b)
    doc = {"metric": args.metric, "t": res.t_statistic,
           "df": res.degrees_of_freedom, "p": res.p_value}
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = AnalysisConfig(
        year=args.year, precinct_geo=args.geo, precinct_votes=args.votes,
        district_geo=args.district_geo, district_votes=args.district_votes,
        width=args.width, mode=args.mode, levels=args.levels,
        max_margin=args.max_margin, polarity=args.polarity)
    dim = _dim(args.dim)
    check_year(config.year)
    result = run_year(config)
    write_outputs([result], args.out, dim=dim, snapshots=not args.no_snapshots)
    headline = result.bottleneck_by_dim[dim]
    sys.stdout.write(
        f"{config.year}: H{dim} precinct/district bottleneck = "
        f"{'inf' if math.isinf(headline) else format(headline, '.6g')}\n")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    dim = _dim(args.dim)
    labels, diagrams = [], []
    for path in args.barcodes:
        labels.append(Path(path).stem)
        diagrams.append(_read_barcode_file(path).get(dim, []))
    _emit(matrix_to_csv(labels, distance_matrix(labels, diagrams, bottleneck)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gerrytda",
        description="Persistent-homology gerrymandering analysis of election maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="join geometry with votes, emit GeoJSON")
    _add_common(p, "geo", "votes", "out")
    p.set_defaults(handler=_cmd_ingest, required=("geo", "votes"))

    p = sub.add_parser("rasterize", help="margin field to 16-bit PGM + sidecar")
    _add_common(p, "geo", "votes", "raster", "out")
    p.set_defaults(handler=_cmd_rasterize, required=("geo", "votes", "out"))

    p = sub.add_parser("barcode", help="level-set persistence barcode JSON")
    _add_common(p, "geo", "votes", "raster", "levels", "out")
    p.set_defaults(handler=_cmd_barcode, required=("geo", "votes"))

    p = sub.add_parser("compare", help="distances between two barcode files")
    p.add_argument("barcode_a")
    p.add_argument("barcode_b")
    _add_common(p, "dim", "out")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("compactness", help="Polsby-Popper and Reock scores CSV")
    _add_common(p, "geo", "out")
    p.set_defaults(handler=_cmd_compactness, required=("geo",))

    p = sub.add_parser("ttest", help="paired t-test between two score files")
    p.add_argument("scores_a")
    p.add_argument("scores_b")
    p.add_argument("--metric", choices=["polsby_popper", "reock"], help="score column")
    _add_common(p, "out")
    p.set_defaults(handler=_cmd_ttest)

    p = sub.add_parser("run", help="full one-year pipeline into an output directory")
    _add_common(p, "geo", "votes", "district", "raster", "levels", "dim", "out")
    p.add_argument("--year", help="label for this year's outputs")
    p.add_argument("--no-snapshots", action="store_true", default=None,
                   help="skip per-level PGM snapshots")
    p.set_defaults(handler=_cmd_run, required=("geo", "votes", "district_geo",
                                               "district_votes", "out"))

    p = sub.add_parser("matrix", help="pairwise bottleneck matrix of barcode files")
    p.add_argument("barcodes", nargs="+")
    _add_common(p, "dim", "out")
    p.set_defaults(handler=_cmd_matrix)

    options = [a for cmd in sub.choices.values() for a in cmd._actions
               if a.option_strings and a.dest not in ("help", "config")]
    for a in options:
        if a.dest in DEFAULTS:
            a.help = f"{a.help} (default {DEFAULTS[a.dest]})"
    # the keys a config file may set: every command's options, each by its
    # action, which is the same in every command that has it
    parser.set_defaults(config_keys={a.dest: a for a in options}, required=())
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _fill_options(args)
        return args.handler(args)
    except (GerryTdaError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
