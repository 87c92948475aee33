"""Persistence for entity mappings.

WT-style benchmarks ship their entity links as standalone files; this
module gives :class:`~repro.linking.mapping.EntityMapping` the same
round-trip so corpora, links, and KGs can be stored and reloaded
independently (and the CLI can pass them between commands).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.linking.mapping import EntityMapping
from repro.startup import gc_paused

PathLike = Union[str, Path]


def mapping_to_dict(mapping: EntityMapping) -> dict:
    """Return a JSON-serializable snapshot of every link."""
    return {
        "version": 1,
        "links": [
            [table_id, row, column, uri]
            for (table_id, row, column), uri in sorted(mapping.all_links())
        ],
    }


def mapping_from_dict(payload: dict) -> EntityMapping:
    """Rebuild an :class:`EntityMapping` from :func:`mapping_to_dict`."""
    return EntityMapping.from_links(payload.get("links", []))


def save_mapping(mapping: EntityMapping, path: PathLike) -> None:
    """Write ``mapping`` to ``path`` as JSON."""
    Path(path).write_text(json.dumps(mapping_to_dict(mapping)),
                          encoding="utf-8")


def load_mapping(path: PathLike) -> EntityMapping:
    """Load a mapping previously written by :func:`save_mapping`.

    Decoded and built with the cyclic GC paused
    (:func:`~repro.startup.gc_paused`).
    """
    with gc_paused():
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return mapping_from_dict(payload)
