"""A Democratic island in a Republican sea, traced through the level-set sweep.

The island's H1 bar is born as soon as the sea is present and dies when the
sweep threshold reaches the island's margin: bar length is margin strength.
"""

import json

from gerrytda.complexes import uniform_schedule
from gerrytda.ingest import join_units, parse_geojson, parse_votes_csv
from gerrytda.persistence import levelset_barcode
from gerrytda.raster import MarginMode, margin_field, rasterize
from gerrytda.synth import island_scenario, votes_csv_text

scenario = island_scenario(island_margin=0.8)
geo = parse_geojson(json.dumps(scenario["precinct_geojson"]))
votes = parse_votes_csv(votes_csv_text(scenario["precinct_votes"]))
units, report = join_units(geo, votes)
print(f"joined {report.matched} precincts")

field = margin_field(rasterize(units, 80), units, MarginMode.RELATIVE)
schedule = uniform_schedule(25)
bc = levelset_barcode(field, schedule)

for dim in (0, 1):
    print(f"H{dim}:")
    for birth, death in bc.diagram(dim):
        print(f"  [{birth:.2f}, {death if death != float('inf') else 'inf'})")

print(json.dumps(bc.to_json(), sort_keys=True))
