"""LSH prefiltering: MinHash / hyperplane signatures and the LSEI."""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from repro.lsh.config import PAPER_CONFIGS, RECOMMENDED_CONFIG, LSHConfig
    from repro.lsh.hyperplane import HyperplaneHasher
    from repro.lsh.index import LSHIndex, TablePrefilter
    from repro.lsh.minhash import MinHasher, TypeShingler, pair_shingles
    from repro.lsh.tuning import LSHTuner, TuningOutcome
    from repro.lsh.schemes import (
        DEFAULT_TYPE_FILTER_THRESHOLD,
        EmbeddingSignatureScheme,
        SignatureScheme,
        TypeSignatureScheme,
        frequent_types,
    )

__all__ = [
    "LSHConfig",
    "PAPER_CONFIGS",
    "RECOMMENDED_CONFIG",
    "MinHasher",
    "TypeShingler",
    "pair_shingles",
    "HyperplaneHasher",
    "LSHIndex",
    "TablePrefilter",
    "LSHTuner",
    "TuningOutcome",
    "SignatureScheme",
    "TypeSignatureScheme",
    "EmbeddingSignatureScheme",
    "frequent_types",
    "DEFAULT_TYPE_FILTER_THRESHOLD",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("PAPER_CONFIGS", "RECOMMENDED_CONFIG", "LSHConfig"),
    ".hyperplane": ("HyperplaneHasher",),
    ".index": ("LSHIndex", "TablePrefilter"),
    ".minhash": ("MinHasher", "TypeShingler", "pair_shingles"),
    ".tuning": ("LSHTuner", "TuningOutcome"),
    ".schemes": (
        "DEFAULT_TYPE_FILTER_THRESHOLD", "EmbeddingSignatureScheme",
        "SignatureScheme", "TypeSignatureScheme", "frequent_types",
    ),
})
