"""Data-lake persistence: CSV per table and a JSON bundle for whole lakes.

CSV is the lingua franca of real data lakes (GitTables is a CSV corpus),
so individual tables round-trip through standard CSV files.  For whole
corpora the JSON bundle format is far faster to load and preserves value
types and metadata exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List, Optional, Union

from repro.datalake.lake import DataLake
from repro.datalake.table import CellValue, Table
from repro.startup import gc_paused

PathLike = Union[str, Path]

_NULL_TOKEN = ""


def _render_cell(value: CellValue) -> str:
    if value is None:
        return _NULL_TOKEN
    return str(value)


def _parse_cell(text: str) -> CellValue:
    """Best-effort typed parse: int, then float, then string, '' -> null."""
    if text == _NULL_TOKEN:
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def save_table_csv(table: Table, path: PathLike) -> None:
    """Write ``table`` to ``path`` as a CSV file with a header row."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.attributes)
        for row in table.rows:
            writer.writerow([_render_cell(v) for v in row])


def load_table_csv(path: PathLike, table_id: Optional[str] = None) -> Table:
    """Read a CSV file with a header row into a :class:`Table`.

    ``table_id`` defaults to the file stem.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows:
        raise ValueError(f"CSV file {path} is empty (no header row)")
    header, body = rows[0], rows[1:]
    parsed = [[_parse_cell(cell) for cell in row] for row in body]
    return Table(table_id or path.stem, header, parsed)


def lake_to_dict(lake: DataLake) -> dict:
    """Return a JSON-serializable dictionary for ``lake``."""
    return {
        "version": 1,
        "tables": [
            {
                "id": t.table_id,
                "attributes": list(t.attributes),
                "rows": [list(row) for row in t.rows],
                "metadata": t.metadata,
            }
            for t in lake
        ],
    }


def lake_from_dict(payload: dict) -> DataLake:
    """Rebuild a :class:`DataLake` from :func:`lake_to_dict` output."""
    lake = DataLake()
    for record in payload.get("tables", []):
        lake.add(
            Table(
                record["id"],
                record["attributes"],
                record["rows"],
                metadata=record.get("metadata"),
            )
        )
    return lake


def save_lake(lake: DataLake, path: PathLike) -> None:
    """Write ``lake`` to ``path`` as a JSON bundle."""
    Path(path).write_text(json.dumps(lake_to_dict(lake)), encoding="utf-8")


def load_lake(path: PathLike) -> DataLake:
    """Load a lake previously written by :func:`save_lake`.

    Decoded and built with the cyclic GC paused
    (:func:`~repro.startup.gc_paused`).
    """
    with gc_paused():
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return lake_from_dict(payload)


def save_lake_csv_dir(lake: DataLake, directory: PathLike) -> None:
    """Write every table of ``lake`` as ``<table_id>.csv`` in a directory.

    Table ids containing path separators are rejected rather than
    silently creating nested directories.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    for table in lake:
        if "/" in table.table_id or "\\" in table.table_id:
            raise ValueError(
                f"table id {table.table_id!r} is not a valid file name"
            )
        save_table_csv(table, target / f"{table.table_id}.csv")


def load_lake_csv_dir(directory: PathLike) -> DataLake:
    """Load every ``*.csv`` file in ``directory`` into one lake.

    Files are loaded in sorted-name order for determinism; each table id
    is the file stem.
    """
    lake = DataLake()
    paths: List[Path] = sorted(Path(directory).glob("*.csv"))
    for path in paths:
        lake.add(load_table_csv(path))
    return lake
