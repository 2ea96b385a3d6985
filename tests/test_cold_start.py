"""Which scipy modules each route loads, each checked in a fresh interpreter.

Only raster barcodes and bottleneck (both scipy.sparse.csgraph) and
Wasserstein (scipy.optimize) need scipy; they import it on first use, so the
package, the CLI and the routes that never call them load no scipy module.
No route loads scipy.ndimage.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gerrytda
from gerrytda.cli import main
from gerrytda.compare import bottleneck
from gerrytda.complexes import uniform_schedule
from gerrytda.persistence import levelset_barcode
from gerrytda.synth import band_districts
from oracles import field_from_array

SRC = str(Path(gerrytda.__file__).parents[1])
TESTS = str(Path(__file__).parent)


def fresh(code: str) -> list:
    """Run code in a new interpreter, the package and the test oracles on
    its path; its last stdout line, as JSON."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS])))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().split("\n")[-1])


SCIPY = "[m for m in sorted(sys.modules) if m == 'scipy' or m.startswith('scipy.')]"


def scipy_after(code: str) -> list[str]:
    """The scipy modules loaded in a fresh interpreter after running code."""
    return fresh(f"import json, sys\n{code}\nprint(json.dumps({SCIPY}))")


def test_cli_import_loads_no_scipy():
    assert scipy_after("import gerrytda, gerrytda.cli") == []


def test_scipy_free_commands_load_no_scipy(island_files, tmp_path):
    bands = tmp_path / "bands.geojson"
    bands.write_text(json.dumps(band_districts(10, 10, 5)))  # as many districts as packed
    scores = [str(tmp_path / "packed.csv"), str(tmp_path / "bands.csv")]
    for geo, path in zip((island_files["packed_geo"], str(bands)), scores):
        assert main(["compactness", "--geo", geo, "--out", path]) == 0
    commands = [
        ["ingest", "--geo", island_files["precinct_geo"],
         "--votes", island_files["precinct_votes"], "--out", str(tmp_path / "units.geojson")],
        ["rasterize", "--geo", island_files["precinct_geo"],
         "--votes", island_files["precinct_votes"], "--width", "40",
         "--out", str(tmp_path / "margin.pgm")],
        ["compactness", "--geo", island_files["packed_geo"], "--out", str(tmp_path / "s.csv")],
        ["ttest", *scores, "--out", str(tmp_path / "t.json")],
    ]
    for argv in commands:
        code = (f"import contextlib, io\nfrom gerrytda.cli import main\n"
                f"with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert main({argv!r}) == 0")
        assert scipy_after(code) == [], argv[0]


def test_adjacency_route_loads_no_scipy():
    code = """
from gerrytda import complexes, ingest, persistence, synth
from gerrytda.geometry import UnitKind
geo = ingest.parse_geojson(json.dumps(synth.grid_mosaic(8, 6, seed=3)), kind=UnitKind.PRECINCT)
votes = ingest.parse_votes_csv(synth.votes_csv_text(synth.mosaic_votes(8, 6, seed=3)))
units, _ = ingest.join_units(geo, votes)
for kind in ("queen", "rook"):
    bc = persistence.barcode(complexes.build_adjacency_filtration(
        units, complexes.uniform_schedule(10), kind))
    assert bc.pairs
"""
    assert scipy_after(code) == []


def test_scipy_routes_still_work_in_a_fresh_process():
    values = np.random.default_rng(5).uniform(-1, 1, (12, 12)).round(3)
    a, b = [(0.1, 0.5), (0.2, 0.9)], [(0.15, 0.6)]
    code = f"""
import numpy as np
from gerrytda.compare import bottleneck
from gerrytda.complexes import uniform_schedule
from gerrytda.persistence import levelset_barcode
from oracles import field_from_array
bc = levelset_barcode(field_from_array(np.array({values.tolist()!r})), uniform_schedule(8))
raster = {SCIPY}
print(json.dumps([bc.dumps(), raster, bottleneck({a!r}, {b!r}), {SCIPY}]))
"""
    dumps, raster, distance, loaded = fresh(f"import json, sys\n{code}")
    want = levelset_barcode(field_from_array(values), uniform_schedule(8))
    assert dumps == want.dumps()
    assert distance == pytest.approx(bottleneck(a, b))
    assert "scipy.sparse.csgraph" in raster  # before bottleneck loads it too
    assert "scipy.ndimage" not in loaded
    assert "scipy.optimize" not in loaded
