"""Vectorized scoring kernel: columnar corpus index + batched SemRel.

The package has two halves:

* :mod:`repro.core.kernel.index` — the compiled, read-only
  :class:`CorpusIndex` (interned entity ids, columnar per-table entity
  grids, type bitmaps for popcount Jaccard, stacked unit embeddings for
  matmul cosine, similarity rows memoized within a byte budget);
* :mod:`repro.core.kernel.engine` — the
  :class:`VectorizedTableSearchEngine`, a stand-alone engine (no
  scalar base class) evaluating Algorithm 1 with array reductions at
  score-parity <= 1e-9 with the scalar engine.

It is the engine ``Thetis`` and every CLI command build by default;
``engine_kind="scalar"`` (``--engine scalar`` on ``search`` and
``bench``) selects the per-cell reference the parity tests check it
against, and ``Thetis.explain`` always runs that reference.  See
``docs/performance.md`` for the memory layout.
"""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from repro.core.kernel.batchstats import BatchStats
    from repro.core.kernel.engine import VectorizedTableSearchEngine
    from repro.core.kernel.index import (
        ROW_MEMO_BYTES,
        CorpusIndex,
        SimilarityKernel,
        compile_kernel,
    )
    from repro.core.kernel.join import (
        JoinCorpusIndex,
        VectorizedJoinSearchEngine,
        compile_join_index,
    )
    from repro.core.kernel.prefilter import PrefilterStats
    from repro.core.kernel.segments import (
        SegmentedCorpusIndex,
        SegmentedIndexStats,
    )
    from repro.core.kernel.storage import (
        inspect_index,
        load_index,
        save_index,
    )
    from repro.core.kernel.union import (
        UNION_ENCODERS,
        UnionCorpusIndex,
        VectorizedUnionSearchEngine,
        compile_union_index,
    )

#: Engine kinds ``Thetis`` builds and the CLI offers: the scalar
#: oracle and this kernel.
ENGINE_KINDS = ("scalar", "vectorized")

__all__ = [
    "ENGINE_KINDS",
    "BatchStats",
    "CorpusIndex",
    "JoinCorpusIndex",
    "PrefilterStats",
    "ROW_MEMO_BYTES",
    "SegmentedCorpusIndex",
    "SegmentedIndexStats",
    "SimilarityKernel",
    "UNION_ENCODERS",
    "UnionCorpusIndex",
    "VectorizedJoinSearchEngine",
    "VectorizedTableSearchEngine",
    "VectorizedUnionSearchEngine",
    "compile_kernel",
    "compile_join_index",
    "compile_union_index",
    "inspect_index",
    "load_index",
    "save_index",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".batchstats": ("BatchStats",),
    ".engine": ("VectorizedTableSearchEngine",),
    ".index": (
        "ROW_MEMO_BYTES", "CorpusIndex", "SimilarityKernel", "compile_kernel",
    ),
    ".join": (
        "JoinCorpusIndex", "VectorizedJoinSearchEngine", "compile_join_index",
    ),
    ".prefilter": ("PrefilterStats",),
    ".segments": ("SegmentedCorpusIndex", "SegmentedIndexStats"),
    ".storage": ("inspect_index", "load_index", "save_index"),
    ".union": (
        "UNION_ENCODERS", "UnionCorpusIndex", "VectorizedUnionSearchEngine",
        "compile_union_index",
    ),
})
