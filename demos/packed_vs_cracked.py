"""Packing keeps the island's H1 bar at district level; cracking erases it.

Same precincts, same votes, two district plans. The precinct barcode is the
ground truth; the district barcode either preserves its loop (packed plan,
small bottleneck distance) or loses it (cracked plan, large distance).
"""

import json
import tempfile
from pathlib import Path

from gerrytda.report import AnalysisConfig, run_years
from gerrytda.synth import island_scenario, votes_csv_text

with tempfile.TemporaryDirectory(prefix="gerrytda_") as tmp:
    work = Path(tmp)
    scenario = island_scenario(island_margin=0.8)
    for name in ("precinct", "packed", "cracked"):
        (work / f"{name}.geojson").write_text(json.dumps(scenario[f"{name}_geojson"]))
        (work / f"{name}.csv").write_text(votes_csv_text(scenario[f"{name}_votes"]))

    configs = [
        AnalysisConfig(year=plan,
                       precinct_geo=str(work / "precinct.geojson"),
                       precinct_votes=str(work / "precinct.csv"),
                       district_geo=str(work / f"{plan}.geojson"),
                       district_votes=str(work / f"{plan}.csv"),
                       width=100, mode="relative")
        for plan in ("packed", "cracked")
    ]

    for result in run_years(configs):
        print(f"{result.year} plan:")
        print(f"  district H1 bars: {result.district_barcode.diagram(1)}")
        print(f"  H1 bottleneck(precinct, district) = {result.bottleneck_by_dim[1]:.4f}")
        print(f"  H1 wasserstein(precinct, district) = {result.wasserstein_by_dim[1]:.4f}")
