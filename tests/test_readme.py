"""The README's Library example runs as written."""

import json
import math
import re
from pathlib import Path

from gerrytda import synth

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs(capsys):
    cols, rows, bands = 24, 8, 4
    votes = synth.mosaic_votes(cols, rows, seed=3)
    names = {
        "geojson_text": json.dumps(synth.grid_mosaic(cols, rows, seed=3)),
        "csv_text": synth.votes_csv_text(votes),
        "district_geojson_text": json.dumps(synth.band_districts(cols, rows, bands)),
        "district_csv_text": synth.votes_csv_text(
            synth.aggregate_band_votes(cols, rows, bands, votes)),
    }
    exec(library_block(), names)
    assert capsys.readouterr().out.startswith("[")
    assert names["bc"].diagram(1) and names["other"].diagram(0)
    assert 0.0 < names["d"] and not math.isinf(names["d"])
