"""Reference-protocol REPL over the nested-JSON engine.

Replicates the reference's repl (/root/reference/src/repl.rs) byte for
byte in test mode: commands echo, per-document ``add {json};`` prints the
id literal, ``find`` prints ``[`` / rows / ``]`` with the reference's
renderer, errors print with the reference's Display prefixes.  Running one
of the reference's own ``repl-tests/*.noise`` transcripts through
:func:`run_noise_transcript` must reproduce the file exactly — that is the
parity gate for the nested engine (tests/test_noise_transcripts.py).

Index model: the reference mutates a RocksDB LSM per add/delete; this
engine rebuilds the (tiny, transcript-sized) nested index from the live
document set on the first ``find`` after a mutation — same observable
semantics: upserts keep their seq (src/index.rs:131-162), deletes free the
id but not the seq, re-adds after a committed delete get a fresh seq.
Batch-boundary errors (double add / delete-after-add before a flush)
reproduce src/index.rs:135-176.
"""

from __future__ import annotations

import hashlib
import json
import os

_COMMANDS = ("find", "add", "create", "drop", "open", "pretty", "commit",
             "del", "dumpkeys", "params")

_STATE_NAME = "noise_docs.json"


class _Index:
    """Live document set + lazily rebuilt nested index."""

    def __init__(self, dirname: str):
        self.dir = dirname
        os.makedirs(dirname, exist_ok=True)
        self.state_path = os.path.join(dirname, _STATE_NAME)
        if os.path.exists(self.state_path):
            with open(self.state_path) as f:
                st = json.load(f)
            self.high_seq = st["high_seq"]
            self.docs = {d[1]: (d[0], d[2]) for d in st["docs"]}
        else:
            self.high_seq = 0
            self.docs = {}
        self._reader = None
        self._built_key = None

    def save(self):
        rows = sorted(
            ([seq, i, text] for i, (seq, text) in self.docs.items()),
            key=lambda r: r[0])
        tmp = self.state_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"high_seq": self.high_seq, "docs": rows}, f)
        os.replace(tmp, self.state_path)

    def add(self, doc: dict, the_id: str) -> None:
        if the_id in self.docs:
            seq = self.docs[the_id][0]  # upsert keeps the seq
        else:
            self.high_seq += 1
            seq = self.high_seq
        self.docs[the_id] = (seq, json.dumps(doc, ensure_ascii=False))
        self._reader = None

    def delete(self, the_id: str) -> bool:
        if the_id in self.docs:
            del self.docs[the_id]
            self._reader = None
            return True
        return False

    def reader(self):
        key = hashlib.md5(json.dumps(
            sorted((i, s, t) for i, (s, t) in self.docs.items()),
            sort_keys=True).encode()).hexdigest()[:16]
        if self._reader is not None and self._built_key == key:
            return self._reader
        from .build.json_pipeline import build_json_index, docs_to_parquet
        from .query.json_reader import JsonIndexReader

        idx_dir = os.path.join(self.dir, f"idx-{key}")
        if not os.path.exists(os.path.join(idx_dir, "manifest.json")):
            os.makedirs(idx_dir, exist_ok=True)
            ordered = sorted(self.docs.items(), key=lambda kv: kv[1][0])
            texts = [t for _, (_s, t) in ordered]
            seqs = [s for _, (s, _t) in ordered]
            src = docs_to_parquet(texts, os.path.join(idx_dir, "in.parquet"),
                                  seqs=seqs) if texts else None
            build_json_index([src] if src else [], idx_dir)
        self._reader = JsonIndexReader(idx_dir)
        self._built_key = key
        return self._reader


class NoiseRepl:
    """Statement executor; see :func:`run_noise_transcript` for the
    test-mode line protocol."""

    def __init__(self, out, root: str):
        self.out = out
        self.root = root
        self.index: _Index | None = None
        self.batch_ids: set[str] = set()
        self.params: dict | None = None
        self.pretty = False

    def _p(self, line: str):
        self.out.write(line + "\n")

    def _dir(self, name: str) -> str:
        return os.path.join(self.root, name.strip().replace("/", "_"))

    def execute(self, cmd: str):
        for head in _COMMANDS:
            if cmd.startswith(head):
                rest = cmd[len(head):].strip()
                break
        else:
            return
        if head in ("open", "create"):
            self._flush()
            self.index = _Index(self._dir(rest))
            if head == "create":
                self.index.docs = {}
                self.index.high_seq = 0
                self.index.save()
            return
        if head == "drop":
            import shutil

            shutil.rmtree(self._dir(rest), ignore_errors=True)
            if self.index is not None and self.index.dir == self._dir(rest):
                self.index = None
            return
        if head == "pretty":
            self.pretty = rest.startswith("on")
            return
        if self.index is None:
            self._p("Index isn't open")
            return
        if head == "params":
            self.params = rest
            return
        if head == "commit":
            self._flush()
            return
        if head == "add":
            self._add(rest)
            return
        if head == "del":
            self._del(rest)
            return
        if head == "dumpkeys":
            self._flush()
            self._dumpkeys()
            return
        if head == "find":
            self._flush()
            self._find(cmd)
            return

    def _flush(self):
        self.batch_ids.clear()
        if self.index is not None:
            self.index.save()

    def _add(self, rest: str):
        try:
            doc = json.loads(rest)
        except Exception as e:
            self._p(f"Shred error: {e}")
            return
        if not isinstance(doc, dict):
            self._p("Shred error: Expected JSON object document")
            return
        if "_id" in doc and not isinstance(doc["_id"], str):
            # includes `"_id": null` (src/json_shred.rs:237-240)
            self._p("Shred error: Expected string for `_id` field, got "
                    "another type")
            return
        the_id = doc.get("_id")
        if the_id is None:
            import uuid

            the_id = uuid.uuid4().hex
            doc = {**doc, "_id": the_id}
        if the_id in self.batch_ids:
            self._p("Write error: Attempt to insert multiple docs with "
                    "same _id")
            return
        self.index.add(doc, the_id)
        self.batch_ids.add(the_id)
        from .query.json_executor import str_literal

        self._p(str_literal(the_id))

    def _del(self, rest: str):
        the_id = rest.strip()
        if the_id in self.batch_ids:
            self._p("Write error: Attempt to delete doc with same _id "
                    "added earlier")
            return
        if self.index.delete(the_id):
            self.batch_ids.add(the_id)
            self._p("ok")
        else:
            self._p("not found")

    def _dumpkeys(self):
        """all_keys over the nested index, reference key shapes
        (src/index.rs:229-236)."""
        import numpy as np

        from .build.shred import shred, v_keys, w_keys

        r = self.index.reader()
        n = r.num_docs
        if n == 0:
            return
        ids = r.doc_id_strs(np.arange(n))
        texts = r.doc_json(np.arange(n))
        seqs = {i: self.index.docs[i][0] for i in ids}
        keys: list[str] = []
        for the_id, text in zip(ids, texts):
            sd = shred(json.loads(text), docid=the_id)
            seq = seqs[the_id]
            for k, _pos in w_keys(sd, seq):
                keys.append(k)
            for k, _v in v_keys(sd, seq):
                keys.append(k)
            keys.append(f"I{the_id}")
        for k in sorted(keys):
            self._p(k)

    def _find(self, cmd: str):
        from .query.json_executor import (
            PrettyPrint, render_json, run_json_query,
        )

        params = None
        if self.params is not None:
            try:
                params = json.loads(self.params)
            except Exception as e:
                self._p(f"Parse error: {e}")
                self.params = None
                return
            if not isinstance(params, dict):
                self._p("Parse error: Parameters must be json object")
                self.params = None
                return
        self.params = None  # params.take(): one find consumes them
        r = self.index.reader()
        try:
            rows = run_json_query(r, cmd, params)
        except ValueError as e:
            self._p(f"Parse error: {e}")
            return
        pp = (PrettyPrint("  ", "\n", " ") if self.pretty
              else PrettyPrint())
        out: list = ["["]
        if rows:
            out.append("\n")
        pp.push()
        for i, v in enumerate(rows):
            render_json(v, pp, out)
            if i + 1 < len(rows):
                out.append(",")
            out.append("\n")
        pp.pop()
        out.append("]")
        self.out.write("".join(out) + "\n")


def run_noise_transcript(text: str, root: str, out=None) -> str:
    """Feed a reference-style transcript (test mode): echo commands,
    preserve blank/comment lines, drop non-command lines, execute each
    ``;``-terminated command (src/repl.rs:19-66).  Returns the output."""
    import io

    buf = out or io.StringIO()
    repl = NoiseRepl(buf, root)
    lines = text.splitlines(keepends=True)
    i = 0
    while i < len(lines):
        line = lines[i]
        if line == "\n" or line.startswith("#"):
            buf.write(line)
            i += 1
            continue
        if not line.startswith(_COMMANDS):
            i += 1
            continue
        cmd_lines = [line]
        i += 1
        while not cmd_lines[-1].rstrip().endswith(";") and i < len(lines):
            cmd_lines.append(lines[i])
            i += 1
        raw = "".join(cmd_lines)
        buf.write(raw)
        stmt = raw.rstrip()
        if stmt.endswith(";"):
            stmt = stmt[:-1]
        repl.execute(stmt.strip())
    return buf.getvalue() if out is None else ""
