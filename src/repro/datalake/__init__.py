"""Data-lake substrate: tables, repositories, IO, and statistics."""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from repro.datalake.io import (
        lake_from_dict,
        lake_to_dict,
        load_lake,
        load_lake_csv_dir,
        load_table_csv,
        save_lake,
        save_lake_csv_dir,
        save_table_csv,
    )
    from repro.datalake.lake import DataLake, TableOrdinals
    from repro.datalake.profiling import (
        ColumnKind,
        ColumnProfile,
        TableProfile,
        profile_column,
        profile_table,
    )
    from repro.datalake.stats import CorpusStatistics, corpus_statistics
    from repro.datalake.table import CellValue, Table

__all__ = [
    "Table",
    "CellValue",
    "DataLake",
    "TableOrdinals",
    "CorpusStatistics",
    "corpus_statistics",
    "save_table_csv",
    "load_table_csv",
    "save_lake",
    "load_lake",
    "lake_to_dict",
    "lake_from_dict",
    "load_lake_csv_dir",
    "save_lake_csv_dir",
    "ColumnKind",
    "ColumnProfile",
    "TableProfile",
    "profile_column",
    "profile_table",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".io": (
        "lake_from_dict", "lake_to_dict", "load_lake", "load_lake_csv_dir",
        "load_table_csv", "save_lake", "save_lake_csv_dir", "save_table_csv",
    ),
    ".lake": ("DataLake", "TableOrdinals"),
    ".profiling": (
        "ColumnKind", "ColumnProfile", "TableProfile", "profile_column",
        "profile_table",
    ),
    ".stats": ("CorpusStatistics", "corpus_statistics"),
    ".table": ("CellValue", "Table"),
})
