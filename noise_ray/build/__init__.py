from .compact import compact_index
from .incremental import (add_documents, delete_by_query, merge_epochs,
                          total_docs)
from .json_pipeline import build_json_index, docs_to_parquet
from .pipeline import build_index, term_bucket, DEFAULT_FIELDS, MANIFEST_NAME
from .shred import shred
from .vector_index import (add_vectors, build_vector_index,
                           compact_vector_index, ivf_query)

__all__ = ["add_documents", "build_index",
           "build_json_index", "compact_index",
           "add_vectors", "build_vector_index", "compact_vector_index",
           "delete_by_query", "merge_epochs",
           "docs_to_parquet", "ivf_query", "shred", "term_bucket",
           "total_docs", "DEFAULT_FIELDS", "MANIFEST_NAME"]
