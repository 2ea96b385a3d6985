"""Command-line interface.

Every subcommand accepts --config <path> pointing at a key=value text file;
explicit flags win over config values, which win over defaults. Keys use the
flag names with dashes or underscores interchangeably. A key may name an
option of any command, so one file can serve several; a key that names none
is an error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
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


def _read_text(path: str) -> str:
    """A file's text; bytes that are not UTF-8 are an IngestError naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8: {exc}") from None


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for n, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"config line {n}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


class _Options:
    """Flag > config-file > default resolution for one parsed command."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = _read_config(args.config) if getattr(args, "config", None) else {}
        for key in self.cfg:
            if key not in args.config_keys:
                raise ParameterError(f"config key {key}: no command has an option "
                                     f"--{key.replace('_', '-')}")

    def get(self, key: str, default=None, convert=str):
        val = getattr(self.args, key, None)
        if val is not None:
            return val
        if key in self.cfg:
            try:
                return convert(self.cfg[key])
            except ValueError:
                raise ParameterError(f"config key {key}: {self.cfg[key]!r} is not "
                                     f"a valid {convert.__name__}") from None
        return default

    def require(self, key: str):
        val = self.get(key)
        if val is None:
            raise ParameterError(f"missing required option --{key.replace('_', '-')}")
        return val


def flag(text: str) -> bool:
    """A config value for an on/off option: 1 or 0."""
    if text not in ("0", "1"):
        raise ValueError(text)
    return text == "1"


def _dim(opts: _Options) -> int:
    """The --dim option; barcodes have bars in dimensions 0, 1 and 2 only."""
    dim = opts.get("dim", 1, int)
    if dim not in (0, 1, 2):
        raise ParameterError(f"--dim must be 0, 1 or 2, got {dim}")
    return dim


def _mode(opts: _Options) -> str:
    """The --mode option, which a config file can set to anything."""
    mode = opts.get("mode", "density")
    if mode not in ("relative", "density"):
        raise ParameterError(f"--mode must be relative or density, got {mode!r}")
    return mode


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
        p.add_argument("--width", type=int, help="raster width in pixels (default 1024)")
        p.add_argument("--mode", choices=["relative", "density"],
                       help="margin mode (default density)")
    if "levels" in names:
        p.add_argument("--levels", type=int, help="sweep level count (default 25)")
        p.add_argument("--max-margin", dest="max_margin", type=float,
                       help="top sweep threshold (default 1.0)")
        p.add_argument("--polarity", choices=["democratic", "republican"])
    if "dim" in names:
        p.add_argument("--dim", type=int, help="homology dimension (default 1)")
    if "out" in names:
        p.add_argument("--out", help="output path")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _field(opts: _Options):
    units, report = _load_layer(opts.require("geo"), opts.require("votes"),
                                UnitKind.PRECINCT)
    width = opts.get("width", 1024, int)
    return margin_field(rasterize(units, width), units, MarginMode(_mode(opts))), units, report


def _cmd_ingest(opts: _Options) -> int:
    units, report = _load_layer(opts.require("geo"), opts.require("votes"),
                                UnitKind.PRECINCT)
    doc = to_geojson(units)
    out = opts.get("out")
    if out:
        Path(out).write_text(json.dumps(doc, sort_keys=True))
    summary = {"matched": report.matched, "filled_missing": report.filled_missing,
               "orphan_vote_rows": list(report.orphan_vote_rows),
               "units": len(units)}
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_rasterize(opts: _Options) -> int:
    fld, _, _ = _field(opts)
    write_margin_pgm(fld, opts.require("out"))
    return 0


def _cmd_barcode(opts: _Options) -> int:
    fld, _, _ = _field(opts)
    schedule = uniform_schedule(opts.get("levels", 25, int),
                                opts.get("max_margin", 1.0, float))
    bc = levelset_barcode(fld, schedule, opts.get("polarity", "democratic"))
    _emit(bc.dumps() + "\n", opts.get("out"))
    return 0


def _read_barcode_file(path: str) -> dict[int, list[tuple[float, float]]]:
    text = _read_text(path)
    try:
        return read_barcode_json(text)[0]
    except IngestError as exc:
        raise IngestError(f"{path}: {exc}") from None


def _cmd_compare(opts: _Options) -> int:
    diagrams = [_read_barcode_file(p) for p in (opts.args.barcode_a, opts.args.barcode_b)]
    dim = _dim(opts)
    a = diagrams[0].get(dim, [])
    b = diagrams[1].get(dim, [])

    def enc(x: float):
        return "inf" if math.isinf(x) else x

    doc = {"dim": dim, "bottleneck": enc(bottleneck(a, b)),
           "wasserstein_1": enc(wasserstein(a, b, p=1)),
           "wasserstein_2": enc(wasserstein(a, b, p=2))}
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", opts.get("out"))
    return 0


def _cmd_compactness(opts: _Options) -> int:
    units = parse_geojson(Path(opts.require("geo")).read_bytes(),
                          kind=UnitKind.DISTRICT)
    rows = score_units(units)
    _emit(scores_to_csv(rows), opts.get("out"))
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


def _cmd_ttest(opts: _Options) -> int:
    metric = opts.get("metric", "polsby_popper")
    a = _read_scores_csv(opts.args.scores_a, metric)
    b = _read_scores_csv(opts.args.scores_b, metric)
    res = paired_t_test(a, b)
    doc = {"metric": metric, "t": res.t_statistic,
           "df": res.degrees_of_freedom, "p": res.p_value}
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", opts.get("out"))
    return 0


def _cmd_run(opts: _Options) -> int:
    config = AnalysisConfig(
        year=opts.get("year", "year"),
        precinct_geo=opts.require("geo"),
        precinct_votes=opts.require("votes"),
        district_geo=opts.require("district_geo"),
        district_votes=opts.require("district_votes"),
        width=opts.get("width", 1024, int),
        mode=_mode(opts),
        levels=opts.get("levels", 25, int),
        max_margin=opts.get("max_margin", 1.0, float),
        polarity=opts.get("polarity", "democratic"),
    )
    dim = _dim(opts)
    snapshots = not opts.get("no_snapshots", False, flag)
    check_year(config.year)
    result = run_year(config)
    write_outputs([result], opts.require("out"), dim=dim, snapshots=snapshots)
    headline = result.bottleneck_by_dim[dim]
    sys.stdout.write(
        f"{config.year}: H{dim} precinct/district bottleneck = "
        f"{'inf' if math.isinf(headline) else format(headline, '.6g')}\n")
    return 0


def _cmd_matrix(opts: _Options) -> int:
    dim = _dim(opts)
    labels, diagrams = [], []
    for path in opts.args.barcodes:
        labels.append(Path(path).stem)
        diagrams.append(_read_barcode_file(path).get(dim, []))
    _emit(matrix_to_csv(labels, distance_matrix(labels, diagrams, bottleneck)),
          opts.get("out"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gerrytda",
        description="Persistent-homology gerrymandering analysis of election maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="join geometry with votes, emit GeoJSON")
    _add_common(p, "geo", "votes", "out")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("rasterize", help="margin field to 16-bit PGM + sidecar")
    _add_common(p, "geo", "votes", "raster", "out")
    p.set_defaults(handler=_cmd_rasterize)

    p = sub.add_parser("barcode", help="level-set persistence barcode JSON")
    _add_common(p, "geo", "votes", "raster", "levels", "out")
    p.set_defaults(handler=_cmd_barcode)

    p = sub.add_parser("compare", help="distances between two barcode files")
    p.add_argument("barcode_a")
    p.add_argument("barcode_b")
    _add_common(p, "dim", "out")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("compactness", help="Polsby-Popper and Reock scores CSV")
    _add_common(p, "geo", "out")
    p.set_defaults(handler=_cmd_compactness)

    p = sub.add_parser("ttest", help="paired t-test between two score files")
    p.add_argument("scores_a")
    p.add_argument("scores_b")
    p.add_argument("--metric", choices=["polsby_popper", "reock"])
    _add_common(p, "out")
    p.set_defaults(handler=_cmd_ttest)

    p = sub.add_parser("run", help="full one-year pipeline into an output directory")
    _add_common(p, "geo", "votes", "district", "raster", "levels", "dim", "out")
    p.add_argument("--year", help="label for this year's outputs")
    p.add_argument("--no-snapshots", action="store_true", default=None,
                   help="skip per-level PGM snapshots")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("matrix", help="pairwise bottleneck matrix of barcode files")
    p.add_argument("barcodes", nargs="+")
    _add_common(p, "dim", "out")
    p.set_defaults(handler=_cmd_matrix)

    # the keys a config file may set: every command's options
    parser.set_defaults(config_keys=frozenset(
        a.dest for cmd in sub.choices.values() for a in cmd._actions
        if a.option_strings and a.dest not in ("help", "config")))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(_Options(args))
    except GerryTdaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
