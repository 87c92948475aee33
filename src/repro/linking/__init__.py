"""Entity linking: the partial mapping Phi, label linker, noise models."""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from repro.linking.contextual import ContextualLinker
    from repro.linking.inverted_index import InvertedIndex, tokenize
    from repro.linking.io import (
        load_mapping,
        mapping_from_dict,
        mapping_to_dict,
        save_mapping,
    )
    from repro.linking.linker import LabelLinker
    from repro.linking.mapping import CellRef, EntityMapping
    from repro.linking.noise import NoisyLinker, coverage_of, reduce_coverage

__all__ = [
    "EntityMapping",
    "CellRef",
    "LabelLinker",
    "ContextualLinker",
    "InvertedIndex",
    "tokenize",
    "mapping_to_dict",
    "mapping_from_dict",
    "save_mapping",
    "load_mapping",
    "NoisyLinker",
    "reduce_coverage",
    "coverage_of",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".contextual": ("ContextualLinker",),
    ".inverted_index": ("InvertedIndex", "tokenize"),
    ".io": (
        "load_mapping", "mapping_from_dict", "mapping_to_dict", "save_mapping",
    ),
    ".linker": ("LabelLinker",),
    ".mapping": ("CellRef", "EntityMapping"),
    ".noise": ("NoisyLinker", "coverage_of", "reduce_coverage"),
})
