"""Exception types shared across the package.

Everything derives from GerryTdaError so callers can catch one base class;
it also subclasses ValueError because most failures are bad input values.
"""


class GerryTdaError(ValueError):
    pass


class GeometryError(GerryTdaError):
    """Degenerate or non-finite geometry."""


class IngestError(GerryTdaError):
    """Malformed input file (GeoJSON, votes CSV, barcode JSON, scores CSV)."""


class MarginError(GerryTdaError):
    """Margin undefined for a unit (zero total votes)."""


class RasterError(GerryTdaError):
    """Rasterization cannot proceed (empty collection, bad grid)."""


class ParameterError(GerryTdaError):
    """Out-of-range or inconsistent parameter value."""


class StructureError(GerryTdaError):
    """Boundary matrix or filtered complex violates its structural contract."""


class ComplexError(GerryTdaError):
    """Filtration construction produced no cells."""


class DegenerateSampleError(GerryTdaError):
    """Statistical test input with no variance or too few pairs."""


class PipelineError(GerryTdaError):
    """Stage-tagged failure raised by the reporting pipeline."""
