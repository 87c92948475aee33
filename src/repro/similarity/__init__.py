"""Entity similarity functions sigma and informativeness weights I."""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from repro.similarity.base import (
        EntitySimilarity,
        ExactMatchSimilarity,
        WeightedCombination,
    )
    from repro.similarity.embedding import EmbeddingCosineSimilarity
    from repro.similarity.predicates import (
        PredicateJaccardSimilarity,
        predicate_signature,
    )
    from repro.similarity.informativeness import (
        Informativeness,
        UniformInformativeness,
        informativeness_or_uniform,
    )
    from repro.similarity.types import (
        DEFAULT_CAP,
        DepthWeightedTypeSimilarity,
        MappingTypeSimilarity,
        TypeJaccardSimilarity,
        jaccard,
    )

__all__ = [
    "EntitySimilarity",
    "ExactMatchSimilarity",
    "WeightedCombination",
    "TypeJaccardSimilarity",
    "MappingTypeSimilarity",
    "DepthWeightedTypeSimilarity",
    "EmbeddingCosineSimilarity",
    "PredicateJaccardSimilarity",
    "predicate_signature",
    "Informativeness",
    "UniformInformativeness",
    "informativeness_or_uniform",
    "jaccard",
    "DEFAULT_CAP",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": (
        "EntitySimilarity", "ExactMatchSimilarity", "WeightedCombination",
    ),
    ".embedding": ("EmbeddingCosineSimilarity",),
    ".predicates": ("PredicateJaccardSimilarity", "predicate_signature"),
    ".informativeness": (
        "Informativeness", "UniformInformativeness",
        "informativeness_or_uniform",
    ),
    ".types": (
        "DEFAULT_CAP", "DepthWeightedTypeSimilarity", "MappingTypeSimilarity",
        "TypeJaccardSimilarity", "jaccard",
    ),
})
