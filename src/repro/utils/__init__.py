"""Shared utilities: validation, scaling, streaming, geometry, heaps."""

from repro.utils.validation import (
    check_array,
    check_fraction,
    check_positive,
    check_random_state,
)
from repro.utils.scaling import MinMaxScaler
from repro.utils.streams import DataStream, PassCounter, as_stream
from repro.utils.filestreams import CsvFileStream, NpyFileStream
from repro.utils.ascii_plot import line_plot, scatter_plot
from repro.utils.geometry import ball_volume
from repro.utils.heaps import IndexedMinHeap

__all__ = [
    "check_array",
    "check_fraction",
    "check_positive",
    "check_random_state",
    "MinMaxScaler",
    "DataStream",
    "PassCounter",
    "as_stream",
    "NpyFileStream",
    "CsvFileStream",
    "scatter_plot",
    "line_plot",
    "ball_volume",
    "IndexedMinHeap",
]
