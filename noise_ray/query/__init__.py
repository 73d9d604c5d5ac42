from . import ast
from .distributed import run_query_distributed
from .engine import CompiledQuery
from .executor import run_query
from .json_engine import CompiledJsonQuery
from .json_executor import run_json_query
from .json_reader import JsonIndexReader
from .noise_parser import parse_noise_query, parse_query
from .reader import IndexReader
from .scan import export_matches, index_scan, json_index_scan

__all__ = ["ast", "CompiledQuery", "CompiledJsonQuery", "run_query",
           "run_query_distributed", "run_json_query", "parse_query",
           "parse_noise_query", "IndexReader", "JsonIndexReader",
           "index_scan", "export_matches", "json_index_scan"]
