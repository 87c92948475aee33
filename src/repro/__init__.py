"""Thetis: semantic table search in semantic data lakes.

Reproduction of "Fantastic Tables and Where to Find Them: Table Search
in Semantic Data Lakes" (EDBT 2025).  The package exposes:

* :class:`~repro.system.Thetis` -- the one-stop search facade;
* ``repro.kg`` / ``repro.datalake`` / ``repro.linking`` -- the semantic
  data lake substrates (Definition 2.1);
* ``repro.core`` -- the SemRel score and exact search (Sections 4-5);
* ``repro.lsh`` -- LSEI prefiltering (Section 6);
* ``repro.embeddings`` / ``repro.similarity`` -- RDF2Vec and the entity
  similarities sigma;
* ``repro.baselines`` -- BM25, TURL-like, union- and join-search;
* ``repro.benchgen`` / ``repro.eval`` -- benchmark generation and
  evaluation (Section 7).
"""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from repro.core.query import Query
    from repro.core.result import ResultSet, ScoredTable
    from repro.core.search import TableSearchEngine
    from repro.datalake.lake import DataLake
    from repro.datalake.table import Table
    from repro.kg.entity import Entity
    from repro.kg.graph import KnowledgeGraph
    from repro.linking.mapping import EntityMapping
    from repro.system import Thetis

__version__ = "1.0.0"

__all__ = [
    "Thetis",
    "Query",
    "ResultSet",
    "ScoredTable",
    "TableSearchEngine",
    "DataLake",
    "Table",
    "KnowledgeGraph",
    "Entity",
    "EntityMapping",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core.query": ("Query",),
    ".core.result": ("ResultSet", "ScoredTable"),
    ".core.search": ("TableSearchEngine",),
    ".datalake.lake": ("DataLake",),
    ".datalake.table": ("Table",),
    ".kg.entity": ("Entity",),
    ".kg.graph": ("KnowledgeGraph",),
    ".linking.mapping": ("EntityMapping",),
    ".system": ("Thetis",),
})
