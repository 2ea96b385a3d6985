"""Session-scoped synthetic map fixtures shared across test modules."""

import json

import pytest

from gerrytda.synth import (
    aggregate_band_votes,
    band_districts,
    grid_mosaic,
    island_scenario,
    mosaic_votes,
    votes_csv_text,
)


def write_scenario(root, scenario):
    """Write the island scenario's layers to disk, return a path map."""
    paths = {}
    for name in ("precinct", "packed", "cracked"):
        geo = root / f"{name}.geojson"
        geo.write_text(json.dumps(scenario[f"{name}_geojson"]))
        votes = root / f"{name}_votes.csv"
        votes.write_text(votes_csv_text(scenario[f"{name}_votes"]))
        paths[f"{name}_geo"] = str(geo)
        paths[f"{name}_votes"] = str(votes)
    return paths


@pytest.fixture(scope="session")
def island_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("island")
    scenario = island_scenario(island_margin=0.8)
    paths = write_scenario(root, scenario)
    paths["scenario"] = scenario
    return paths


@pytest.fixture(scope="session")
def gate8_files(tmp_path_factory):
    """Acceptance gate 8's inputs: a 97 x 28 mosaic (2716 units, seed 0) and 14
    band districts, as AnalysisConfig's four path fields."""
    root = tmp_path_factory.mktemp("gate8")
    cols, rows, bands = 97, 28, 14
    votes = mosaic_votes(cols, rows, seed=0)
    texts = {
        "precinct_geo": json.dumps(grid_mosaic(cols, rows, seed=0)),
        "precinct_votes": votes_csv_text(votes),
        "district_geo": json.dumps(band_districts(cols, rows, bands)),
        "district_votes": votes_csv_text(aggregate_band_votes(cols, rows, bands, votes)),
    }
    paths = {}
    for key, text in texts.items():
        path = root / key
        path.write_text(text)
        paths[key] = str(path)
    return paths
