"""Line-protocol REPL / CLI driver, the analogue of the reference's repl
(/root/reference/src/repl.rs:68-207) re-expressed for the batch Parquet
engine:

    create <dir> ;            make/overwrite an index directory
    open <dir> ;              bind to an existing index
    drop <dir> ;              delete an index directory
    add <parquet> [...] ;     stage input parquet files (the reference's
                              per-doc `add` becomes per-file staging)
    fields f1,f2 ;            set indexed fields for the next commit
    fields json ;             NESTED mode: commit builds a nested-JSON
                              index from staged JSONL (arbitrary docs,
                              keypath queries, epoch adds w/ upsert)
    keys k1,k2 ;              set the stable doc ordering key columns
    commit ;                  build (or resume) the index from staged files
                              — the atomic WriteBatch flush analogue
    params {"name": value} ;  bind @name parameters for subsequent finds
    find <query> ;            run a query, print one JSON row per line
    pretty [on|off] ;         toggle indented JSON
    dumpstats ;               manifest summary (the `dumpkeys` analogue)
    exit / quit / EOF         leave

Statements are `;`-terminated, matching the reference's protocol.  The REPL
owns its Ray session when run standalone (`python -m noise_ray`); under an
existing session (tests) it reuses it.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys


class Repl:
    def __init__(self, out=None):
        self.out = out or sys.stdout
        self.index_dir: str | None = None
        self.reader = None
        self.staged: list[str] = []
        self.fields = ("role", "text", "tool")
        self.keys = ("conv_id", "turn_idx")
        self.params: dict | None = None
        self.pretty = False

    # ------------------------------------------------------------ plumbing

    def _p(self, *lines):
        for l in lines:
            print(l, file=self.out)

    def _reader_or_err(self):
        if self.index_dir is None:
            self._p("Index isn't open")
            return None
        if self.reader is None:
            import json as _json

            from .query import IndexReader

            try:
                mpath = os.path.join(self.index_dir, "manifest.json")
                with open(mpath) as f:
                    nested = _json.load(f).get("nested", False)
                if nested:
                    from .query.json_reader import JsonIndexReader

                    self.reader = JsonIndexReader(self.index_dir)
                else:
                    self.reader = IndexReader(self.index_dir)
            except FileNotFoundError:
                self._p("Index has no manifest (nothing committed yet)")
                return None
        return self.reader

    # ------------------------------------------------------------ commands

    def execute(self, stmt: str):
        stmt = stmt.strip()
        if not stmt:
            return True
        if stmt in ("exit", "quit"):
            return False
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        fn = getattr(self, f"cmd_{head}", None)
        if fn is None and head == "find":
            fn = self.cmd_find
        if fn is None:
            self._p(f"Unknown command: {head}")
            return True
        try:
            fn(rest if head != "find" else stmt)
        except Exception as e:  # surface errors like the reference REPL
            self._p(str(e))
        return True

    def cmd_create(self, rest: str):
        shutil.rmtree(rest, ignore_errors=True)
        os.makedirs(rest, exist_ok=True)
        self.index_dir = rest
        self.reader = None
        self.staged = []

    def cmd_open(self, rest: str):
        if not os.path.isdir(rest):
            self._p(f"No such index: {rest}")
            return
        self.index_dir = rest
        self.reader = None

    def cmd_drop(self, rest: str):
        shutil.rmtree(rest, ignore_errors=True)
        shutil.rmtree(f"{rest}.staging", ignore_errors=True)
        if rest == self.index_dir:
            self.index_dir = None
            self.reader = None

    def _nested_mode(self) -> bool:
        """Nested when `fields json` was set OR the open index's manifest
        says so (a reopened nested index must not convert JSONL through
        the flat transcript adapter)."""
        if self.fields == ("json",):
            return True
        if self.index_dir is not None:
            mpath = os.path.join(self.index_dir, "manifest.json")
            if os.path.exists(mpath):
                with open(mpath) as f:
                    return bool(json.load(f).get("nested", False))
        return False

    def cmd_add(self, rest: str):
        paths = []
        for pat in rest.split():
            hits = sorted(glob.glob(pat))
            if not hits:
                self._p(f"No files match {pat}")
                return
            paths.extend(hits)
        jsonl = [p for p in paths
                 if p.endswith((".jsonl", ".json", ".ndjson"))]
        csvs = [p for p in paths if p.endswith(".csv")]
        if self._nested_mode():
            jsonl = []  # nested mode: commit converts JSONL itself
        if jsonl or csvs:
            # the reference's add takes JSON documents; convert through the
            # streaming source adapters into build-ready parquet shards
            if self.index_dir is None:
                self._p("Index isn't open")
                return
            import uuid

            from .sources.jsonl import csv_to_parquet, jsonl_to_parquet

            # staged OUTSIDE the index dir: compaction swaps+deletes the
            # index directory wholesale, which would orphan a pending
            # commit's staged sources if they lived inside it
            converted = []
            for batch, conv in ((jsonl, jsonl_to_parquet),
                                (csvs, csv_to_parquet)):
                if batch:
                    out = os.path.join(
                        f"{self.index_dir}.staging",
                        f"staged-src-{uuid.uuid4().hex[:8]}")
                    converted.extend(conv(batch, out))
            paths = [p for p in paths
                     if p not in jsonl and p not in csvs] + converted
        self.staged.extend(paths)
        self._p(f"staged {len(paths)} file(s), {len(self.staged)} pending")

    def cmd_fields(self, rest: str):
        """``fields f1,f2 ;`` sets the flat indexed columns; ``fields
        json ;`` switches the next commit to the NESTED build (arbitrary
        JSON documents, keypath-qualified postings)."""
        self.fields = tuple(f.strip() for f in rest.split(",") if f.strip())

    def cmd_keys(self, rest: str):
        self.keys = tuple(f.strip() for f in rest.split(",") if f.strip())

    def cmd_commit(self, rest: str):
        if self.index_dir is None:
            self._p("Index isn't open")
            return
        if not self.staged:
            self._p("nothing staged")
            return
        from .build import (
            MANIFEST_NAME, add_documents, build_index, build_json_index,
        )

        committed = os.path.exists(
            os.path.join(self.index_dir, MANIFEST_NAME))
        nested = self._nested_mode()
        staged = self.staged
        if nested:
            # arbitrary-JSON mode: staged JSONL converts to (_id, json)
            # shards, everything else must already be that shape
            from .build.json_pipeline import jsonl_to_doc_parquet

            jsonl = [p for p in staged
                     if p.endswith((".jsonl", ".json", ".ndjson"))]
            staged = [p for p in staged if p not in jsonl]
            if jsonl:
                import uuid

                staged += jsonl_to_doc_parquet(
                    jsonl, os.path.join(f"{self.index_dir}.staging",
                                        f"json-{uuid.uuid4().hex[:8]}"))
        if committed:
            # live index: append as an epoch with upsert semantics, the
            # reference's add-then-flush (/root/reference/src/repl.rs:170-182)
            manifest = add_documents(self.index_dir, staged)
            extra = (f", {len(manifest['tombstoned'])} upserted"
                     if manifest.get("tombstoned") else "")
            self._p(f"committed {manifest['num_docs']} new docs "
                    f"(epoch at seq {manifest['doc_id_offset']}){extra}")
        elif nested:
            manifest = build_json_index(staged, self.index_dir)
            self._p(f"committed {manifest['num_docs']} docs, "
                    f"{len(manifest['segments'])} segments (nested)")
        else:
            manifest = build_index(staged, self.index_dir,
                                   fields=self.fields, key_columns=self.keys)
            self._p(f"committed {manifest['num_docs']} docs, "
                    f"{len(manifest['segments'])} segments")
        self.reader = None
        self.staged = []

    def cmd_del(self, rest: str):
        """`del <doc_id>... ;` or `del <conv_id>:<turn_idx> ;` — tombstone
        docs (hidden from every query; stats unchanged until rebuild), the
        analogue of the reference's Index::delete
        (/root/reference/src/index.rs:164-179)."""
        r = self._reader_or_err()
        if r is None:
            return
        from .query.json_reader import JsonIndexReader

        nested = isinstance(r, JsonIndexReader)
        doc_ids = []
        for tok in rest.split():
            if nested and not tok.lstrip("-").isdigit():
                d = r.lookup_id(tok)  # nested: delete by document _id
                if d is None:
                    self._p(f"not found: {tok}")
                    return
                doc_ids.append(d)
            elif ":" in tok:
                conv, _, turn = tok.rpartition(":")
                d = r.lookup_doc(conv, int(turn))
                if d is None:
                    self._p(f"not found: {tok}")
                    return
                doc_ids.append(d)
            else:
                doc_ids.append(int(tok))
        total = r.add_tombstones(doc_ids)
        self._p(f"ok ({total} tombstoned)")

    def cmd_compact(self, rest: str):
        """`compact ;` — fold epochs + tombstones into a fresh base index
        (doc_ids reassigned dense in key order), the analogue of the
        reference's compaction-filter GC
        (/root/reference/src/index.rs:271-282)."""
        if self._reader_or_err() is None:
            return
        from .build import compact_index

        manifest = compact_index(self.index_dir)
        self.reader = None
        self._p(f"compacted to {manifest['num_docs']} docs, "
                f"{len(manifest['segments'])} segments")

    def cmd_params(self, rest: str):
        v = json.loads(rest)
        if not isinstance(v, dict):
            self._p("Parameters must be json object")
            return
        self.params = v

    def cmd_pretty(self, rest: str):
        self.pretty = rest.strip().startswith("on")

    def cmd_dumpkeys(self, rest: str):
        """`dumpkeys ;` — dump the posting keyspace in the reference's key
        shape (`W<keypath>!<stem>#<seq>` / `C<keypath>!<stem>`,
        src/key_builder.rs:64-93; debug surface of Index::all_keys,
        src/index.rs:229-236).  One line per posting block / stats row,
        in key order per manifest: W rows by (field name, term, min_doc),
        C rows by (field name, term), whatever the bucket layout."""
        r = self._reader_or_err()
        if r is None:
            return
        import pyarrow.parquet as pq

        def rows(m, part, cols, key):
            out = []
            for s in m[part]:
                for row in pq.read_table(s["path"], columns=cols).to_pylist():
                    row["field"] = r.fields[row["field"]]
                    out.append(row)
            return sorted(out, key=lambda row: [row[c] for c in key])

        manifests = [r.manifest] + [e.manifest for e in r._epochs]
        for m in manifests:
            for row in rows(m, "segments", ["field", "term", "min_doc",
                                            "max_doc", "cnt"],
                            ("field", "term", "min_doc")):
                self._p(f"W.{row['field']}!{row['term']}#{row['min_doc']}"
                        f"..{row['max_doc']},{row['cnt']}")
        for m in manifests:
            for row in rows(m, "stats", ["field", "term", "c"],
                            ("field", "term")):
                self._p(f"C.{row['field']}!{row['term']},{row['c']}")

    def cmd_dumpstats(self, rest: str):
        r = self._reader_or_err()
        if r is None:
            return
        from .query.json_reader import JsonIndexReader

        if isinstance(r, JsonIndexReader):
            self._p(json.dumps({
                "nested": True,
                "num_docs": r.num_docs,
                "keypaths": len(r.field_k),
                "num_buckets": r.num_buckets,
                "num_ranges": r.num_ranges,
                "segments": len(r.manifest["segments"]),
                "postings": sum(s["postings"]
                                for s in r.manifest["segments"]),
            }, indent=2 if self.pretty else None))
            return
        manifests = [r.manifest] + [e.manifest for e in r._epochs]
        self._p(json.dumps({
            # reader-level view: epochs merged, like every query sees it
            "num_docs": r.num_docs,
            "fields": r.fields,
            "num_buckets": r.num_buckets,
            "num_ranges": r.num_ranges,
            "segments": sum(len(m["segments"]) for m in manifests),
            "postings": sum(s["postings"] for m in manifests
                            for s in m["segments"]),
            "field_k": {str(k): v for k, v in sorted(r.field_k.items())},
            "epochs": len(r._epochs),
            "tombstones": int(r.tombstones.size),
        }, indent=2 if self.pretty else None))

    def cmd_find(self, stmt: str):
        r = self._reader_or_err()
        if r is None:
            return
        stmt = stmt if stmt.endswith(";") else stmt + " ;"
        from .query.json_reader import JsonIndexReader

        if isinstance(r, JsonIndexReader):
            # nested index: full reference grammar + JSON result stream
            from .query.json_executor import render_value, run_json_query

            for v in run_json_query(r, stmt, self.params):
                self._p(render_value(v, self.pretty))
            return
        from .query import run_query

        t = run_query(r, stmt, self.params)
        for row in t.to_pylist():
            self._p(json.dumps(_jsonable(row),
                               indent=2 if self.pretty else None))


def _jsonable(v):
    import datetime

    import numpy as np

    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, datetime.datetime):
        return v.isoformat()
    return v


def run(inp=None, out=None, interactive: bool | None = None):
    """Feed `;`-terminated statements from ``inp`` (default stdin)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    inp = inp or sys.stdin
    repl = Repl(out)
    if interactive is None:
        interactive = inp is sys.stdin and sys.stdin.isatty()
    buf = ""
    while True:
        if interactive:
            print("noise> " if not buf else "    > ", end="", flush=True)
        line = inp.readline()
        if not line:
            break
        buf += line
        while ";" in buf:
            stmt, _, buf = buf.partition(";")
            if not repl.execute(stmt):
                return
