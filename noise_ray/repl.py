"""Line-protocol REPL, the analogue of the reference's ``repl(r, w,
test_mode)`` (/root/reference/src/repl.rs:68-207).  One statement lexer and
one command dispatch serve two modes, each a staging model plus a renderer:

* file mode (:class:`Repl`, :func:`run`, ``python -m noise_ray``) drives
  the batch Parquet engine: ``add`` stages files, ``commit`` builds the
  index or appends an epoch, ``find`` prints one JSON row per line and
  errors print as their message;
* the reference's test mode (:func:`run_noise_transcript`) keeps the live
  per-document set of ``add {json}`` / ``del <id>``, rebuilds a nested
  index from it on ``find`` and prints the reference's ``[`` / rows /
  ``]`` framing and Display-prefixed errors byte for byte.

File-mode statements:

    create <dir> ;            make/overwrite an index directory
    open <dir> ; drop <dir> ; bind to / delete an index directory
    add <file> [...] ;        stage Parquet/JSONL/CSV files (the reference's
                              per-doc `add` becomes per-file staging)
    fields f1,f2 ;            set indexed fields for the next commit;
                              `fields json` makes it a nested-JSON build
    keys k1,k2 ;              set the stable doc ordering key columns
    commit ;                  build the index from staged files, or append
                              them as an epoch with upserts
    del <doc_id>... ;         tombstone docs (`conv_id:turn_idx` keys too;
                              a nested index takes `_id`s)
    compact ;                 fold epochs and tombstones into a new base
    params {"name": value} ;  bind @name parameters for subsequent finds
    find <query> ;            run a query, print one JSON row per line
    pretty [on|off] ;         toggle indented JSON
    dumpkeys ; dumpstats ;    the posting keyspace; a manifest summary
    exit / quit / EOF         leave

A statement ends at a ``;`` outside a double-quoted string and may span
lines.  The file mode owns its Ray session when run standalone (``python
-m noise_ray``); under an existing session (tests) it reuses it.
"""

from __future__ import annotations

import glob
import hashlib
import io
import json
import os
import re
import shutil
import sys
import uuid

import numpy as np
import pyarrow.parquet as pq
import ray

from .build import (
    MANIFEST_NAME, add_documents, build_index, build_json_index,
    compact_index,
)
from .build.json_pipeline import docs_to_parquet, jsonl_to_doc_parquet
from .build.shred import shred, v_keys, w_keys
from .query import IndexReader, run_query
from .query.json_executor import (
    PrettyPrint, render_json, run_json_query, str_literal,
)
from .query.json_reader import JsonIndexReader
from .sources.jsonl import csv_to_parquet, jsonl_to_parquet

# one statement: text up to a `;` outside a double-quoted string.  A string
# still open where a line ends in `;` stops there, as the reference ends a
# statement at such a line, so a stray quote cannot swallow the script
_STATEMENT = re.compile(
    r'(?:[^;"]|"(?:[^"\\]|\\.)*?(?:"|(?=;[ \t]*(?:\n|$))))*;', re.S)

_CONVERTED = (".jsonl", ".json", ".ndjson", ".csv")  # what `add` converts
_SHRED = "Shred error: "
_WRITE = "Write error: "


def _split(buf: str) -> tuple[list[str], str]:
    """Cut the complete statements off ``buf``: ``(statements, rest)``."""
    stmts = []
    while m := _STATEMENT.match(buf):
        stmts.append(buf[:m.end() - 1])
        buf = buf[m.end():]
    return stmts, buf


class ReplError(ValueError):
    """A statement's error; ``kind`` is the reference's Display prefix."""

    def __init__(self, msg: str, kind: str = ""):
        super().__init__(msg)
        self.kind = kind


def _parse_params(text: str) -> dict:
    v = json.loads(text)
    if not isinstance(v, dict):
        raise ValueError("Parameters must be json object")
    return v


def _reference_keys(r) -> list[str]:
    """A nested index's keys: each live doc's ``W`` / ``V`` keys under its
    add-order seq and its ``I<id>``, sorted; tombstoned docs are skipped."""
    live = np.setdiff1d(np.arange(r.num_docs), r.tombstones)
    keys: list[str] = []
    for the_id, text, seq in zip(r.doc_id_strs(live), r.doc_json(live),
                                 r.doc_seqs(live)):
        sd = shred(json.loads(text), docid=the_id)
        keys += [k for k, _ in w_keys(sd, seq) + v_keys(sd, seq)]
        keys.append(f"I{the_id}")
    return sorted(keys)


def _flat_keys(r) -> list[str]:
    """A flat index's keys, ``W<field>!<stem>#<min_doc>..<max_doc>,<cnt>``
    per posting block and ``C<field>!<stem>,<c>`` per stats row, in key
    order per manifest: W rows by (field name, term, min_doc), C rows by
    (field name, term), whatever the bucket layout."""
    def rows(m, part, cols, key):
        out = []
        for s in m[part]:
            for row in pq.read_table(s["path"], columns=cols).to_pylist():
                row["field"] = r.fields[row["field"]]
                out.append(row)
        return sorted(out, key=lambda row: [row[c] for c in key])

    manifests = [r.manifest] + [e.manifest for e in r._epochs]
    w = [f"W.{row['field']}!{row['term']}#{row['min_doc']}"
         f"..{row['max_doc']},{row['cnt']}" for m in manifests
         for row in rows(m, "segments", ["field", "term", "min_doc",
                                         "max_doc", "cnt"],
                         ("field", "term", "min_doc"))]
    return w + [f"C.{row['field']}!{row['term']},{row['c']}"
                for m in manifests
                for row in rows(m, "stats", ["field", "term", "c"],
                                ("field", "term"))]


def _manifest_nested(index_dir: str) -> bool:
    with open(os.path.join(index_dir, "manifest.json")) as f:
        return bool(json.load(f).get("nested", False))


class Repl:
    """The REPL in file mode: staged Parquet/JSONL/CSV files with a
    build-or-epoch commit, JSON rows out, errors as their message and
    ``params`` that hold until replaced.  :class:`_TestMode` swaps in the
    reference's staging model and renderer by overriding ``commands``,
    ``_take`` (which input lines it reads), ``_path`` / ``_bind`` /
    ``_reader`` (its index), ``_find_params`` and ``_rows`` / ``_error``."""

    commands = ("create", "open", "drop", "add", "fields", "keys", "commit",
                "del", "compact", "params", "pretty", "dumpkeys",
                "dumpstats", "find")
    # appended to a find before it is parsed: file mode re-terminates it,
    # so parse-error offsets count the `;`
    end = " ;"

    def __init__(self, out=None):
        self.out = out or sys.stdout
        self.pending = ""  # the statement being read
        self.index_dir: str | None = None
        self.reader = None
        self.staged: list[str] = []
        self.fields = ("role", "text", "tool")
        self.keys = ("conv_id", "turn_idx")
        self.params = None
        self.pretty = False

    def _p(self, *lines):
        for l in lines:
            self.out.write(l + "\n")

    def _take(self, line: str, mid: bool) -> bool:
        return True

    def _error(self, e: Exception):
        self._p(str(e))

    def _rows(self, rows: list):
        for row in rows:
            self._p(json.dumps(row, default=_json_default,
                               indent=2 if self.pretty else None))

    def _path(self, name: str) -> str:
        return name

    def _bind(self, path: str | None):
        if path is not None and not os.path.isdir(path):
            raise ReplError(f"No such index: {path}")
        self.index_dir, self.reader, self.staged = path, None, []

    def _reader(self):
        if self.index_dir is None:
            raise ReplError("Index isn't open")
        if self.reader is None:
            try:
                nested = _manifest_nested(self.index_dir)
            except FileNotFoundError:
                raise ReplError("Index has no manifest (nothing committed "
                                "yet)") from None
            self.reader = (JsonIndexReader if nested
                           else IndexReader)(self.index_dir)
        return self.reader

    def _find_params(self):
        return self.params

    def feed(self, lines):
        """Run the statements in ``lines`` until one is exit."""
        for line in lines:
            if self._take(line, bool(self.pending.strip())):
                stmts, self.pending = _split(self.pending + line)
                for stmt in stmts:
                    if not self.execute(stmt):
                        return

    def execute(self, stmt: str) -> bool:
        stmt = stmt.strip()
        if not stmt:
            return True
        if stmt in ("exit", "quit"):
            return False
        # the command word ends at a space or where a query/doc opens
        head = re.match(r"[^\s{\[]*", stmt).group()
        if head not in self.commands:
            self._p(f"Unknown command: {stmt.split(None, 1)[0]}")
            return True
        try:
            getattr(self, f"cmd_{head}")(
                stmt if head == "find" else stmt[len(head):].strip())
        except Exception as e:  # surface errors like the reference REPL
            self._error(e)
        return True

    def cmd_create(self, name: str):
        self.cmd_drop(name)
        os.makedirs(self._path(name), exist_ok=True)
        self._bind(self._path(name))

    def cmd_open(self, name: str):
        self._bind(self._path(name))

    def cmd_drop(self, name: str):
        path = self._path(name)
        if path == self.index_dir:
            self._bind(None)
        shutil.rmtree(path, ignore_errors=True)
        shutil.rmtree(f"{path}.staging", ignore_errors=True)

    def cmd_pretty(self, rest: str):
        self.pretty = rest.startswith("on")

    def cmd_params(self, rest: str):
        self.params = _parse_params(rest)

    def cmd_find(self, stmt: str):
        r = self._reader()
        params = self._find_params()
        if isinstance(r, JsonIndexReader):
            self._rows(run_json_query(r, stmt + self.end, params))
        else:
            self._rows(run_query(r, stmt + self.end, params).to_pylist())

    def cmd_dumpkeys(self, rest: str):
        """`dumpkeys ;` — dump the posting keyspace in the reference's key
        shapes (src/key_builder.rs:64-93; debug surface of
        Index::all_keys, src/index.rs:229-236)."""
        r = self._reader()
        self._p(*(_reference_keys(r) if isinstance(r, JsonIndexReader)
                  else _flat_keys(r)))

    def _nested_mode(self) -> bool:
        """`fields json` was set, or the open index's manifest says so."""
        return self.fields == ("json",) or (
            self.index_dir is not None
            and os.path.exists(os.path.join(self.index_dir, "manifest.json"))
            and _manifest_nested(self.index_dir))

    def cmd_add(self, rest: str):
        paths = []
        for pat in rest.split():
            hits = sorted(glob.glob(pat))
            if not hits:
                self._p(f"No files match {pat}")
                return
            paths.extend(hits)

        # JSONL and CSV convert into build-ready parquet shards, staged
        # OUTSIDE the index dir: compaction swaps+deletes the index
        # directory wholesale, which would orphan them
        staged = [p for p in paths if not p.endswith(_CONVERTED)]
        for ext, conv in ((_CONVERTED[:-1], jsonl_to_doc_parquet
                           if self._nested_mode() else jsonl_to_parquet),
                          (_CONVERTED[-1:], csv_to_parquet)):
            batch = [p for p in paths if p.endswith(ext)]
            if batch and self.index_dir is None:
                raise ReplError("Index isn't open")
            if batch:
                staged += conv(batch, os.path.join(
                    f"{self.index_dir}.staging",
                    f"staged-src-{uuid.uuid4().hex[:8]}"))
        self.staged.extend(staged)
        self._p(f"staged {len(staged)} file(s), {len(self.staged)} pending")

    def cmd_fields(self, rest: str):
        self.fields = tuple(f.strip() for f in rest.split(",") if f.strip())

    def cmd_keys(self, rest: str):
        self.keys = tuple(f.strip() for f in rest.split(",") if f.strip())

    def cmd_commit(self, rest: str):
        if self.index_dir is None:
            raise ReplError("Index isn't open")
        if not self.staged:
            self._p("nothing staged")
            return

        if os.path.exists(os.path.join(self.index_dir, MANIFEST_NAME)):
            # live index: append as an epoch with upsert semantics, the
            # reference's add-then-flush (/root/reference/src/repl.rs:170-182)
            manifest = add_documents(self.index_dir, self.staged)
            extra = (f", {len(manifest['tombstoned'])} upserted"
                     if manifest.get("tombstoned") else "")
            self._p(f"committed {manifest['num_docs']} new docs "
                    f"(epoch at seq {manifest['doc_id_offset']}){extra}")
        elif self._nested_mode():
            manifest = build_json_index(self.staged, self.index_dir)
            self._p(f"committed {manifest['num_docs']} docs, "
                    f"{len(manifest['segments'])} segments (nested)")
        else:
            manifest = build_index(self.staged, self.index_dir,
                                   fields=self.fields, key_columns=self.keys)
            self._p(f"committed {manifest['num_docs']} docs, "
                    f"{len(manifest['segments'])} segments")
        self.reader, self.staged = None, []

    def cmd_del(self, rest: str):
        """`del <doc_id | conv_id:turn_idx | _id>... ;` — tombstone docs, the
        analogue of the reference's Index::delete (src/index.rs:164-179).
        A nested index takes only `_id`s, digit strings included; a flat
        one takes doc ids and `conv_id:turn_idx` keys."""
        r = self._reader()
        nested = isinstance(r, JsonIndexReader)
        doc_ids = []
        for tok in rest.split():
            if nested:
                d = r.lookup_id(tok)  # nested: delete by document _id
            elif ":" in tok:
                conv, _, turn = tok.rpartition(":")
                d = r.lookup_doc(conv, int(turn))
            else:
                d = int(tok)
            if d is None:
                raise ReplError(f"not found: {tok}")
            doc_ids.append(d)
        total = r.add_tombstones(doc_ids)
        self._p(f"ok ({total} tombstoned)")

    def cmd_compact(self, rest: str):
        """`compact ;` — fold epochs + tombstones into a fresh base, the
        analogue of the reference's compaction GC (src/index.rs:271-282)."""
        self._reader()
        manifest = compact_index(self.index_dir)
        self.reader = None
        self._p(f"compacted to {manifest['num_docs']} docs, "
                f"{len(manifest['segments'])} segments")

    def cmd_dumpstats(self, rest: str):
        r = self._reader()
        if isinstance(r, JsonIndexReader):
            segs = r.manifest["segments"]
            self._rows([{
                "nested": True, "num_docs": r.num_docs,
                "keypaths": len(r.field_k), "num_buckets": r.num_buckets,
                "num_ranges": r.num_ranges, "segments": len(segs),
                "postings": sum(s["postings"] for s in segs)}])
            return
        manifests = [r.manifest] + [e.manifest for e in r._epochs]
        self._rows([{
            # reader-level view: epochs merged, like every query sees it
            "num_docs": r.num_docs, "fields": r.fields,
            "num_buckets": r.num_buckets, "num_ranges": r.num_ranges,
            "segments": sum(len(m["segments"]) for m in manifests),
            "postings": sum(s["postings"] for m in manifests
                            for s in m["segments"]),
            "field_k": {str(k): v for k, v in sorted(r.field_k.items())},
            "epochs": len(r._epochs), "tombstones": int(r.tombstones.size),
        }])


def _json_default(v):
    """numpy scalars and timestamps in a result row."""
    return v.isoformat() if hasattr(v, "isoformat") else v.item()


class _Docs:
    """The test mode's index: the live ``_id`` → (seq, json) set, saved on
    each flush, and a nested index rebuilt from it by the first ``find``
    after a change.  The reference mutates a RocksDB LSM per add/delete;
    the observable semantics are the same: upserts keep their seq
    (src/index.rs:131-162), deletes free the id but not the seq, and a
    re-add after a committed delete gets a fresh seq."""

    def __init__(self, path: str):
        self.dir = path
        os.makedirs(path, exist_ok=True)
        self.state_path = os.path.join(path, "noise_docs.json")
        st = {"high_seq": 0, "docs": []}
        if os.path.exists(self.state_path):
            with open(self.state_path) as f:
                st = json.load(f)
        self.high_seq = st["high_seq"]
        self.docs = {i: (seq, text) for seq, i, text in st["docs"]}
        self._reader = self._built_key = None

    def _rows(self) -> list:
        return sorted([s, i, t] for i, (s, t) in self.docs.items())

    def save(self):
        tmp = self.state_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"high_seq": self.high_seq, "docs": self._rows()}, f)
        os.replace(tmp, self.state_path)

    def add(self, doc: dict, the_id: str) -> None:
        if the_id in self.docs:
            seq = self.docs[the_id][0]  # upsert keeps the seq
        else:
            self.high_seq += 1
            seq = self.high_seq
        self.docs[the_id] = (seq, json.dumps(doc, ensure_ascii=False))

    def delete(self, the_id: str) -> bool:
        return self.docs.pop(the_id, None) is not None

    def reader(self):
        rows = self._rows()
        key = hashlib.md5(json.dumps(rows).encode()).hexdigest()[:16]
        if key == self._built_key:
            return self._reader

        idx_dir = os.path.join(self.dir, f"idx-{key}")
        if not os.path.exists(os.path.join(idx_dir, "manifest.json")):
            os.makedirs(idx_dir, exist_ok=True)
            src = docs_to_parquet(
                [t for _, _, t in rows], os.path.join(idx_dir, "in.parquet"),
                seqs=[s for s, _, _ in rows]) if rows else None
            build_json_index([src] if src else [], idx_dir)
        for old in glob.glob(os.path.join(self.dir, "idx-*")):
            if old != idx_dir:  # keep only the current build
                shutil.rmtree(old, ignore_errors=True)
        self._reader = JsonIndexReader(idx_dir)
        self._built_key = key
        return self._reader


class _TestMode(Repl):
    """The reference's test mode over a :class:`_Docs` set per index under
    ``root``: commands echo, blank and ``#`` lines pass through, other
    lines (expected output) drop; ``add``/``del`` enforce the batch
    boundary (src/index.rs:135-176) until a flush (``commit``, ``find``,
    ``dumpkeys``, ``open``/``create``); ``params`` hold for one ``find``;
    ``find`` prints the reference's framing and errors its prefixes."""

    commands = ("find", "add", "create", "drop", "open", "pretty", "commit",
                "del", "dumpkeys", "params")
    end = ""  # the reference parses a find without its `;`

    def __init__(self, out, root: str):
        super().__init__(out)
        self.root = root
        self.index: _Docs | None = None
        self.batch: set[str] = set()  # ids added or deleted since a flush

    def _take(self, line: str, mid: bool) -> bool:
        take = mid or line.startswith(self.commands)
        if take or line == "\n" or line.startswith("#"):
            self.out.write(line)
        return take

    def _error(self, e: Exception):
        if not isinstance(e, ValueError):
            raise e
        self._p(f"{getattr(e, 'kind', 'Parse error: ')}{e}")

    def _rows(self, rows: list):
        pp = PrettyPrint("  ", "\n", " ") if self.pretty else PrettyPrint()
        out = ["[", "\n" if rows else ""]
        pp.push()
        for i, v in enumerate(rows):
            render_json(v, pp, out)
            out.append(",\n" if i + 1 < len(rows) else "\n")
        pp.pop()
        self._p("".join(out) + "]")

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name.replace("/", "_"))

    def _bind(self, path: str | None):
        self._flush()
        self.index_dir = path
        self.index = _Docs(path) if path else None

    def _flush(self):
        self.batch.clear()
        if self.index is not None:
            self.index.save()

    def _index(self) -> _Docs:
        if self.index is None:
            raise ReplError("Index isn't open")
        return self.index

    def _reader(self):
        index = self._index()
        self._flush()
        return index.reader()

    def _find_params(self):
        text, self.params = self.params, None  # one find consumes them
        return None if text is None else _parse_params(text)

    def cmd_params(self, rest: str):
        self._index()
        self.params = rest

    def cmd_commit(self, rest: str):
        self._index()
        self._flush()

    def cmd_add(self, rest: str):
        index = self._index()
        try:
            doc = json.loads(rest)
        except (ValueError, RecursionError) as e:
            raise ReplError(str(e), _SHRED) from None
        if not isinstance(doc, dict):
            raise ReplError("Expected JSON object document", _SHRED)
        the_id = doc.get("_id")
        if "_id" in doc and not isinstance(the_id, str):
            # includes `"_id": null` (src/json_shred.rs:237-240)
            raise ReplError("Expected string for `_id` field, got another "
                            "type", _SHRED)
        if the_id is None:
            the_id = uuid.uuid4().hex
            doc = {**doc, "_id": the_id}
        if the_id in self.batch:
            raise ReplError("Attempt to insert multiple docs with same _id",
                            _WRITE)
        index.add(doc, the_id)
        self.batch.add(the_id)
        self._p(str_literal(the_id))

    def cmd_del(self, the_id: str):
        index = self._index()
        if the_id in self.batch:
            raise ReplError("Attempt to delete doc with same _id added "
                            "earlier", _WRITE)
        if not index.delete(the_id):
            self._p("not found")
            return
        self.batch.add(the_id)
        self._p("ok")


def run(inp=None, out=None, interactive: bool | None = None):
    """Feed `;`-terminated statements from ``inp`` (default stdin) to a
    file-mode :class:`Repl`."""
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    inp = inp or sys.stdin
    repl = Repl(out)
    if interactive is None:
        interactive = inp is sys.stdin and sys.stdin.isatty()

    def lines():
        while True:
            if interactive:
                print("    > " if repl.pending.strip() else "noise> ",
                      end="", flush=True)
            line = inp.readline()
            if not line:
                return
            yield line

    repl.feed(lines())


def run_noise_transcript(text: str, root: str, out=None) -> str:
    """Run a reference-style transcript in test mode (src/repl.rs:19-66),
    index directories under ``root``.  A transcript is self-verifying: a
    faithful run reproduces it byte for byte.  Returns the output when
    ``out`` is None, else writes it there and returns ``""``."""
    buf = out or io.StringIO()
    _TestMode(buf, root).feed(text.splitlines(keepends=True))
    return buf.getvalue() if out is None else ""
