"""Topological comparison of precinct and district voting maps.

The package turns vote tallies on polygonal maps into level-set filtrations
of rasterized margin fields, computes persistence barcodes over GF(2), and
compares plans through bottleneck/Wasserstein distances and classical
compactness scores.
"""

from .errors import (
    ComplexError,
    DegenerateSampleError,
    GeometryError,
    GerryTdaError,
    IngestError,
    MarginError,
    ParameterError,
    PipelineError,
    RasterError,
    StructureError,
)
from .geometry import (
    Bounds,
    Point2,
    UnitCollection,
    UnitKind,
)
from .ingest import (
    JoinReport,
    VoteTable,
    join_units,
    parse_geojson,
    parse_votes_csv,
    to_geojson,
)
from .raster import (
    Grid,
    LabelRaster,
    MarginField,
    MarginMode,
    margin_field,
    rasterize,
    write_margin_pgm,
)
from .complexes import (
    FilteredComplex,
    LevelSchedule,
    build_adjacency_filtration,
    detect_adjacency,
    flag_filtration,
    uniform_schedule,
)
from .persistence import (
    INF,
    Barcode,
    PersistencePair,
    barcode,
    levelset_barcode,
    read_barcode_json,
)
from .compare import (
    bottleneck,
    distance_matrix,
    matrix_to_csv,
    total_persistence,
    wasserstein,
)
from .compactness import (
    CompactnessRow,
    TTestResult,
    min_enclosing_circle,
    paired_t_test,
    score_units,
    scores_to_csv,
    t_p_value,
)
from .report import (
    AnalysisConfig,
    YearResult,
    render_barcode_svg,
    run_year,
    run_years,
    write_outputs,
)

__version__ = "0.1.0"
