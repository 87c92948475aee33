"""Versioned on-disk format for segmented corpus indexes.

An index directory holds exactly two files:

``header.json``
    Everything non-numeric, versioned: per-segment table ids, interned
    URI lists, tombstones, the kernel spec tree (which similarity the
    arrays were compiled for), and for every numeric array its dtype
    (with explicit byte order, e.g. ``<i4``), shape, and byte offset
    into the payload file.

``arrays.bin``
    Every numeric array of every segment, concatenated with 64-byte
    alignment.  Nothing else — no pickles, no Python objects.

Cold start is therefore **one** ``np.memmap`` of ``arrays.bin`` plus
header validation: each array is a zero-copy ``view`` slice of the
mapping, views materialize lazily
(:meth:`~repro.core.kernel.index.CorpusIndex.from_arrays`), and pages
are only faulted in as scoring touches them.  The same property lets
the cluster workers of one machine share one on-disk index through the
OS page cache.

Saves are crash-safe and mmap-safe: both files are written to
temporaries and ``os.replace``d into place (payload first, header
last), so a reader either sees a complete generation or fails cleanly,
and live memmaps of the previous generation keep reading the old inode.

Loading validates the stored kernel spec against the ``sigma`` the
caller supplies — an index compiled for type Jaccard refuses to serve
an embedding engine with a clear :class:`IndexStorageError` instead of
silently wrong scores.
"""

from __future__ import annotations

import json
import os
from functools import partial
from typing import Any, Dict, IO, List, Optional

import numpy as np

from repro.core.kernel.index import (
    CombinationKernel,
    CorpusIndex,
    EmbeddingMatmulKernel,
    ExactMatchKernel,
    ScalarLoopKernel,
    SimilarityKernel,
    TypeBitmapKernel,
)
from repro.core.kernel.segments import SegmentedCorpusIndex
from repro.exceptions import IndexStorageError
from repro.linking.mapping import EntityMapping
from repro.similarity.base import (
    EntitySimilarity,
    ExactMatchSimilarity,
    WeightedCombination,
)
from repro.similarity.embedding import EmbeddingCosineSimilarity
from repro.similarity.types import (
    MappingTypeSimilarity,
    TypeJaccardSimilarity,
)

#: Identifies the file family; never reused across incompatible layouts.
FORMAT_NAME = "thetis-segmented-corpus-index"

#: Bumped on any change to header semantics or array layout.
FORMAT_VERSION = 1

#: Every array starts on a 64-byte boundary: past any SIMD alignment
#: requirement, and it keeps offsets multiples of every element size so
#: the zero-copy ``view`` reinterpretation is always legal.
ALIGNMENT = 64

HEADER_FILENAME = "header.json"
ARRAYS_FILENAME = "arrays.bin"

#: Corpus-wide arrays persisted per segment, in write order.  Names
#: match the :class:`CorpusIndex` attributes and the ``arrays`` mapping
#: accepted by :meth:`CorpusIndex.from_arrays`.
_CORPUS_ARRAYS = (
    "table_rows",
    "table_columns",
    "col_offset",
    "row_offset",
    "flat_ids",
    "col_start",
    "nnz_gcolumns",
    "nnz_gids",
    "nnz_gcounts",
    "nnz_toffset",
)

#: Similarity types with a dedicated (non-scalar-loop) kernel; a stored
#: ``scalar_loop`` spec must *not* match any of these, or the caller's
#: sigma would have compiled to a different kernel than the one saved.
_BUILTIN_SIGMAS = (
    ExactMatchSimilarity,
    TypeJaccardSimilarity,
    MappingTypeSimilarity,
    EmbeddingCosineSimilarity,
    WeightedCombination,
)


class _ArrayWriter:
    """Appends aligned arrays to the payload file, recording specs."""

    def __init__(self, handle: IO[bytes]):
        self._handle = handle
        self.offset = 0

    def write(self, array: np.ndarray) -> Dict[str, Any]:
        contiguous = np.ascontiguousarray(array)
        padding = (-self.offset) % ALIGNMENT
        if padding:
            self._handle.write(b"\x00" * padding)
            self.offset += padding
        spec = {
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
            "offset": self.offset,
        }
        payload = contiguous.tobytes()
        self._handle.write(payload)
        self.offset += len(payload)
        return spec


def _read_array(base: np.ndarray, spec: Dict[str, Any]) -> np.ndarray:
    """One zero-copy array view out of the payload mapping."""
    try:
        dtype = np.dtype(str(spec["dtype"]))
        shape = tuple(int(extent) for extent in spec["shape"])
        offset = int(spec["offset"])
    except (KeyError, TypeError, ValueError) as error:
        raise IndexStorageError(f"malformed array spec {spec!r}") from error
    count = 1
    for extent in shape:
        count *= extent
    nbytes = dtype.itemsize * count
    if offset < 0 or offset % dtype.itemsize:
        raise IndexStorageError(
            f"array offset {offset} is not aligned to itemsize "
            f"{dtype.itemsize} ({dtype.str})"
        )
    chunk = base[offset:offset + nbytes]
    if chunk.size != nbytes:
        raise IndexStorageError(
            f"arrays payload truncated: need {nbytes} bytes at offset "
            f"{offset}, file holds {base.size}"
        )
    return chunk.view(dtype).reshape(shape)


# ----------------------------------------------------------------------
# Kernel (de)hydration
# ----------------------------------------------------------------------
def _kernel_spec(
    kernel: SimilarityKernel, writer: _ArrayWriter
) -> Dict[str, Any]:
    """Persist a kernel's arrays; returns its header spec tree."""
    if type(kernel) is ExactMatchKernel:
        return {"kind": "exact"}
    if type(kernel) is TypeBitmapKernel:
        bit_names: List[Optional[str]] = [None] * len(kernel._bit_of)
        for name, bit in kernel._bit_of.items():
            bit_names[bit] = name
        return {
            "kind": "type_bitmap",
            "cap": float(kernel._cap),
            "bit_names": bit_names,
            "arrays": {
                "bitmaps": writer.write(kernel._bitmaps),
                "sizes": writer.write(kernel._sizes),
            },
        }
    if type(kernel) is EmbeddingMatmulKernel:
        return {
            "kind": "embedding",
            "dimensions": int(kernel._matrix.shape[1]),
            "arrays": {"matrix": writer.write(kernel._matrix)},
        }
    if type(kernel) is CombinationKernel:
        return {
            "kind": "combination",
            "weights": [float(weight) for weight in kernel._weights],
            "parts": [
                _kernel_spec(part, writer) for part in kernel._parts
            ],
        }
    if type(kernel) is ScalarLoopKernel:
        # The sigma itself is not persisted (it may be arbitrary user
        # code); the caller re-supplies it at load time.
        return {"kind": "scalar_loop"}
    raise IndexStorageError(
        f"cannot persist kernel type {type(kernel).__name__}"
    )


def _load_kernel(
    spec: Dict[str, Any],
    uris: List[str],
    id_of: Dict[str, int],
    sigma: EntitySimilarity,
    base: np.ndarray,
) -> SimilarityKernel:
    """Rebuild a kernel, validating the spec against the live sigma."""
    kind = spec.get("kind")
    if kind == "exact":
        if type(sigma) is not ExactMatchSimilarity:
            raise _sigma_mismatch(kind, sigma)
        return ExactMatchKernel(uris, id_of)
    if kind == "type_bitmap":
        if type(sigma) not in (TypeJaccardSimilarity, MappingTypeSimilarity):
            raise _sigma_mismatch(kind, sigma)
        if float(spec.get("cap", -1.0)) != float(sigma.cap):
            raise IndexStorageError(
                f"stored type-Jaccard cap {spec.get('cap')} does not "
                f"match the live sigma's cap {sigma.cap}"
            )
        return TypeBitmapKernel.from_arrays(
            uris,
            id_of,
            sigma.types_of,
            sigma.cap,
            list(spec.get("bit_names", [])),
            _read_array(base, spec["arrays"]["bitmaps"]),
            _read_array(base, spec["arrays"]["sizes"]),
        )
    if kind == "embedding":
        if type(sigma) is not EmbeddingCosineSimilarity:
            raise _sigma_mismatch(kind, sigma)
        if int(spec.get("dimensions", -1)) != int(sigma.store.dimensions):
            raise IndexStorageError(
                f"stored embedding dimensionality "
                f"{spec.get('dimensions')} does not match the live "
                f"store's {sigma.store.dimensions}"
            )
        return EmbeddingMatmulKernel.from_arrays(
            uris, id_of, sigma.store,
            _read_array(base, spec["arrays"]["matrix"]),
        )
    if kind == "combination":
        if type(sigma) is not WeightedCombination:
            raise _sigma_mismatch(kind, sigma)
        parts_spec = spec.get("parts", [])
        weights = [float(weight) for weight in spec.get("weights", [])]
        if len(parts_spec) != len(sigma.parts) or weights != [
            float(weight) for weight in sigma.weights
        ]:
            raise IndexStorageError(
                "stored combination kernel has different parts/weights "
                "than the live sigma"
            )
        parts = [
            _load_kernel(part_spec, uris, id_of, part_sigma, base)
            for part_spec, part_sigma in zip(parts_spec, sigma.parts)
        ]
        return CombinationKernel(uris, id_of, parts, sigma.weights)
    if kind == "scalar_loop":
        if type(sigma) in _BUILTIN_SIGMAS:
            raise _sigma_mismatch(kind, sigma)
        return ScalarLoopKernel(uris, id_of, sigma)
    raise IndexStorageError(f"unknown kernel kind {kind!r} in header")


def _sigma_mismatch(kind: Any, sigma: EntitySimilarity) -> IndexStorageError:
    return IndexStorageError(
        f"index was persisted with a {kind!r} kernel but the live "
        f"similarity is {type(sigma).__name__}; rebuild the index for "
        "this similarity configuration"
    )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def save_index(index: SegmentedCorpusIndex, path: str) -> Dict[str, Any]:
    """Persist a segmented index into directory ``path``.

    Returns a summary dict (segment/table/byte counts).  The write is
    atomic per generation: payload then header are ``os.replace``d, so
    concurrent readers (including memmaps of the previous generation)
    are never exposed to a torn state.
    """
    directory = os.fspath(path)
    os.makedirs(directory, exist_ok=True)
    arrays_path = os.path.join(directory, ARRAYS_FILENAME)
    header_path = os.path.join(directory, HEADER_FILENAME)
    segments: List[Dict[str, Any]] = []
    arrays_tmp = arrays_path + ".tmp"
    with open(arrays_tmp, "wb") as handle:
        writer = _ArrayWriter(handle)
        for segment, dead_set in zip(index.segments, index.dead):
            arrays = {
                name: writer.write(getattr(segment, name))
                for name in _CORPUS_ARRAYS
            }
            segments.append({
                "table_ids": list(segment.table_ids),
                "uris": list(segment.uris),
                "dead": sorted(dead_set),
                "arrays": arrays,
                "kernel": _kernel_spec(segment.kernel, writer),
            })
        array_bytes = writer.offset
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "alignment": ALIGNMENT,
        "compactions": index.compactions,
        "array_bytes": array_bytes,
        "segments": segments,
    }
    header_tmp = header_path + ".tmp"
    with open(header_tmp, "w", encoding="utf-8") as handle:
        json.dump(header, handle)
    os.replace(arrays_tmp, arrays_path)
    os.replace(header_tmp, header_path)
    return {
        "path": directory,
        "segments": len(index.segments),
        "live_tables": len(index),
        "tombstones": sum(len(dead_set) for dead_set in index.dead),
        "array_bytes": array_bytes,
    }


def _load_header(directory: str) -> Dict[str, Any]:
    header_path = os.path.join(directory, HEADER_FILENAME)
    try:
        with open(header_path, "r", encoding="utf-8") as handle:
            header = json.load(handle)
    except OSError as error:
        raise IndexStorageError(
            f"cannot read index header {header_path}: {error}"
        ) from error
    except json.JSONDecodeError as error:
        raise IndexStorageError(
            f"malformed index header {header_path}: {error}"
        ) from error
    if header.get("format") != FORMAT_NAME:
        raise IndexStorageError(
            f"{header_path} is not a {FORMAT_NAME} header "
            f"(format={header.get('format')!r})"
        )
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise IndexStorageError(
            f"index format version {version!r} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return header


def _map_arrays(directory: str, header: Dict[str, Any]) -> np.ndarray:
    """Memmap the whole payload file read-only as raw bytes."""
    arrays_path = os.path.join(directory, ARRAYS_FILENAME)
    try:
        size = os.path.getsize(arrays_path)
    except OSError as error:
        raise IndexStorageError(
            f"cannot stat index payload {arrays_path}: {error}"
        ) from error
    expected = int(header.get("array_bytes", 0))
    if size < expected:
        raise IndexStorageError(
            f"index payload {arrays_path} is truncated: header "
            f"promises {expected} bytes, file holds {size}"
        )
    if size == 0:
        return np.zeros(0, dtype=np.uint8)
    return np.memmap(
        arrays_path,
        dtype=np.uint8,
        mode="r",
        offset=0,
        shape=(size,),
    )


def load_index(
    path: str,
    sigma: EntitySimilarity,
    mapping: EntityMapping,
) -> SegmentedCorpusIndex:
    """Load a segmented index from ``path`` without compiling anything.

    ``sigma`` and ``mapping`` become the live bindings of the returned
    index (used only by *future* incremental compiles; the persisted
    arrays are served as-is).  The stored kernel spec is validated
    against ``sigma`` — a mismatch raises :class:`IndexStorageError`
    rather than returning an index that scores with the wrong
    similarity.  Header fields this build does not read are ignored,
    such as the memo bound older writers stored: the bounds are
    constants now.
    """
    directory = os.fspath(path)
    header = _load_header(directory)
    base = _map_arrays(directory, header)
    segments: List[CorpusIndex] = []
    dead: List[frozenset] = []
    for segment_spec in header.get("segments", []):
        uris = [str(uri) for uri in segment_spec.get("uris", [])]
        table_ids = [
            str(table_id) for table_id in segment_spec.get("table_ids", [])
        ]
        id_of = {uri: index for index, uri in enumerate(uris)}
        kernel = _load_kernel(
            segment_spec.get("kernel", {}), uris, id_of, sigma, base
        )
        try:
            arrays = {
                name: _read_array(base, segment_spec["arrays"][name])
                for name in _CORPUS_ARRAYS
            }
        except KeyError as error:
            raise IndexStorageError(
                f"segment header is missing array {error}"
            ) from error
        segments.append(
            CorpusIndex.from_arrays(table_ids, uris, kernel, arrays)
        )
        dead.append(frozenset(
            str(table_id) for table_id in segment_spec.get("dead", [])
        ))
    return SegmentedCorpusIndex(
        segments,
        dead,
        partial(CorpusIndex, mapping=mapping, sigma=sigma),
        compactions=int(header.get("compactions", 0)),
    )


def inspect_index(path: str, verify: bool = False) -> Dict[str, Any]:
    """Summarize an index directory from its header alone.

    With ``verify=True`` every array spec is additionally resolved
    against the payload mapping, so truncation and misalignment are
    detected without loading table data.
    """
    directory = os.fspath(path)
    header = _load_header(directory)
    segments = header.get("segments", [])
    live = 0
    tombstones = 0
    entities = 0
    segment_rows = []
    for segment_spec in segments:
        table_ids = segment_spec.get("table_ids", [])
        dead_ids = segment_spec.get("dead", [])
        live += len(table_ids) - len(dead_ids)
        tombstones += len(dead_ids)
        entities += len(segment_spec.get("uris", []))
        segment_rows.append({
            "tables": len(table_ids),
            "dead": len(dead_ids),
            "entities": len(segment_spec.get("uris", [])),
            "kernel": segment_spec.get("kernel", {}).get("kind"),
        })
    summary = {
        "path": directory,
        "format": header["format"],
        "version": header["version"],
        "segments": len(segments),
        "live_tables": live,
        "tombstones": tombstones,
        "entities": entities,
        "compactions": int(header.get("compactions", 0)),
        "array_bytes": int(header.get("array_bytes", 0)),
        "segment_detail": segment_rows,
        "verified": False,
    }
    if verify:
        base = _map_arrays(directory, header)
        for segment_spec in segments:
            for spec in segment_spec.get("arrays", {}).values():
                _read_array(base, spec)
            _verify_kernel_arrays(segment_spec.get("kernel", {}), base)
        summary["verified"] = True
    return summary


def _verify_kernel_arrays(spec: Dict[str, Any], base: np.ndarray) -> None:
    for array_spec in spec.get("arrays", {}).values():
        _read_array(base, array_spec)
    for part in spec.get("parts", []):
        _verify_kernel_arrays(part, base)


__all__ = [
    "ALIGNMENT",
    "ARRAYS_FILENAME",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "HEADER_FILENAME",
    "inspect_index",
    "load_index",
    "save_index",
]
