"""Index snapshot / restore — the operational backup surface (cf.
Elasticsearch's snapshot/restore, Lucene's SnapshotDeletionPolicy).

Every data file of an index (segments, stats, docmap, epoch contents)
is IMMUTABLE once its manifest is atomically published — builds,
epochs and compactions write new files and then `os.replace` a
manifest (build/pipeline.py, build/incremental.py).  So a consistent
snapshot needs no lock against readers or writers: it is the closure
of files the manifest (and each published epoch's manifest, and the
tombstone file) references at one instant, hardlinked when the
destination shares a filesystem (O(file count), zero bytes copied —
repeated snapshots share unchanged segments exactly like
Elasticsearch's incremental snapshots) and copied otherwise.

A snapshot directory IS a complete index: `IndexReader(snap_dir)`
opens it directly, and `restore_index` is just the same closure copy
back to a writable location.  At 100 TB the snapshot is per-file
parallel and incremental — only segments new since the last snapshot
move any bytes.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

from .incremental import TOMBSTONES_NAME, _epoch_dirs


def _closure(index_dir: str) -> list[str]:
    """Relative paths of every file a consistent copy of this index
    needs, read off the published manifests (never a directory walk of
    in-flight temp files)."""
    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = json.load(f)
    rel = ["manifest.json"]
    for section in ("docmap", "segments", "stats", "values"):
        rel.extend(entry["path"] for entry in manifest.get(section, []))
    if os.path.exists(os.path.join(index_dir, TOMBSTONES_NAME)):
        rel.append(TOMBSTONES_NAME)
    # derived sidecars ride along when present: the term dictionary
    # (ops/termdict) and the nested spatial grid buckets (build/spatial)
    for side in ("dictionary", "spatial"):
        for p in sorted(glob.glob(os.path.join(index_dir, side,
                                               "*.parquet"))):
            rel.append(os.path.relpath(p, index_dir))
    # published epochs are self-contained sub-indexes (no nesting)

    for edir in _epoch_dirs(index_dir):
        erel = os.path.relpath(edir, index_dir)
        rel.extend(os.path.join(erel, p) for p in _closure(edir))
    return rel


def _transfer(src_root: str, dst_root: str, rel_paths: list[str]) -> int:
    n = 0
    for rp in rel_paths:
        src = os.path.join(src_root, rp)
        dst = os.path.join(dst_root, rp)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        base = os.path.basename(rp)
        if os.path.exists(dst):
            # data files are immutable — keep them.  The two MUTABLE
            # files (manifests are atomically REPLACED by compaction /
            # epoch merges, tombstones by deletes) refresh when their
            # inode changed; an old snapshot's hardlink still points at
            # the superseded inode, so prior snapshots stay isolated.
            if base not in ("manifest.json", TOMBSTONES_NAME):
                continue
            if os.path.samefile(src, dst):
                continue
            os.remove(dst)
        try:
            os.link(src, dst)  # same filesystem: zero-copy
        except OSError:
            shutil.copy2(src, dst)
        n += 1
    return n


def snapshot_index(index_dir: str, snap_dir: str) -> dict:
    """Consistent point-in-time snapshot of ``index_dir`` into
    ``snap_dir`` (module docstring).  Re-snapshotting into the same
    directory transfers only files new since the last snapshot.
    Returns {"files": total, "transferred": new}."""
    rel = _closure(index_dir)
    os.makedirs(snap_dir, exist_ok=True)
    moved = _transfer(index_dir, snap_dir, rel)
    return {"files": len(rel), "transferred": moved}


def restore_index(snap_dir: str, dest_dir: str) -> dict:
    """Materialize a snapshot as a live index at ``dest_dir`` (the
    snapshot is itself openable; restore copies it somewhere
    writable)."""
    rel = _closure(snap_dir)
    os.makedirs(dest_dir, exist_ok=True)
    moved = _transfer(snap_dir, dest_dir, rel)
    return {"files": len(rel), "transferred": moved}
