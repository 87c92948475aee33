"""Entity embeddings: skip-gram word2vec, RDF2Vec trainer, vector store."""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from repro.embeddings.rdf2vec import (
        RDF2VecConfig,
        RDF2VecTrainer,
        train_rdf2vec,
    )
    from repro.embeddings.store import EmbeddingStore
    from repro.embeddings.transe import (
        TransEConfig,
        TransETrainer,
        train_transe,
    )
    from repro.embeddings.word2vec import SkipGramModel, Vocabulary

__all__ = [
    "EmbeddingStore",
    "SkipGramModel",
    "Vocabulary",
    "RDF2VecConfig",
    "RDF2VecTrainer",
    "train_rdf2vec",
    "TransEConfig",
    "TransETrainer",
    "train_transe",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".rdf2vec": ("RDF2VecConfig", "RDF2VecTrainer", "train_rdf2vec"),
    ".store": ("EmbeddingStore",),
    ".transe": ("TransEConfig", "TransETrainer", "train_transe"),
    ".word2vec": ("SkipGramModel", "Vocabulary"),
})
