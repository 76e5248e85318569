"""Joint correlation of time series via angular geometry on the sphere.

Sliding windows map each series to a unit vector; Pearson correlations are
cosines of angles between those vectors; the spread of the resulting point
cloud (diameter, best triangle area) measures how phase-locked the set is,
with minima over time marking locked states.
"""

from .errors import (
    CorrGeomError,
    DuplicateIdError,
    IngestError,
    InvalidTriangleError,
    TooFewPointsError,
    WindowTooLongError,
)
from .events import (
    KIND_DIAMETER,
    KIND_MAX_TRIANGLE,
    MEASURE_KINDS,
    ComparisonReport,
    Event,
    EventList,
    MeasureSeries,
    compare_event_sets,
    detect_minima,
    sliding_measures,
)
from .measures import spherical_triangle_area
from .metric import PROJECTIVE, SPHERICAL, correlation_from_units
from .series import (
    TimeSeries,
    TimeSeriesSet,
    read_timeseries_csv,
    write_timeseries_csv,
)

__version__ = "0.1.0"
