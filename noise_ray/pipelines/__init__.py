from .flagship import (
    corpus_at,
    documents_index,
    transcripts_corpus,
    transcripts_index,
)

__all__ = ["corpus_at", "documents_index", "transcripts_corpus",
           "transcripts_index"]
