"""Job CLI: the ``ray job submit`` entry points for index lifecycle ops.

The north rule's deployment shape — ``ray job submit -- python -m
noise_ray.cli <cmd> ...`` on a fixed-size cluster — with one subcommand
per lifecycle operation.  Every command is resumable (the underlying ops
checkpoint per partition and skip finished outputs), so re-submitting a
failed job continues where it stopped:

    build      <out_index> <src.parquet...> [--fields a,b] [--key-cols ...]
    build-json <out_index> <shards.parquet...>     # (_id, json) rows
    merge      <out_index> <src_index...> [--dedup-keys]  # posting-level
    split      <src_index> <out_index...> [--cuts a,b,...]  # rebalance
    compact    <index>                             # fold epochs+tombstones
    snapshot   <index> <snap_dir>                  # incremental hardlinks
    restore    <snap_dir> <dest_index>
    bm25       <index> <term...> [-k N]            # sanity query
    query      <index> '<noise find ...;>'         # nested engine query
    stats      <index>                             # manifest summary

Ray session ownership: the CLI initialises Ray ONLY when not already
initialised (under ``ray job submit`` the cluster exists; standalone runs
get a local session) and shuts down only what it started.

``merge``, ``split`` and ``compact`` take either engine's index (the
manifest's ``nested`` flag picks); ``merge-json`` and ``split-json`` are
the same commands under their older names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ensure_ray() -> bool:
    import ray

    if ray.is_initialized():
        return False
    ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
             include_dashboard=False, logging_level="ERROR")
    return True


def _cmd_build(a) -> int:
    from .build.pipeline import build_index

    man = build_index(list(a.src), a.index,
                      fields=tuple(a.fields.split(",")),
                      key_columns=tuple(a.key_cols.split(",")))
    print(json.dumps({"num_docs": man["num_docs"],
                      "segments": len(man["segments"])}))
    return 0


def _cmd_build_json(a) -> int:
    from .build.json_pipeline import build_json_index

    man = build_json_index(list(a.src), a.index)
    print(json.dumps({"num_docs": man["num_docs"],
                      "segments": len(man["segments"])}))
    return 0


def _cmd_merge(a) -> int:
    from .build.merge import merge_dedup_keys, merge_indexes

    man = merge_indexes(list(a.src), a.index)
    out = {"num_docs": man["num_docs"], "merged_from": len(a.src)}
    if getattr(a, "dedup_keys", False):
        out["tombstoned"] = merge_dedup_keys(a.index)
    print(json.dumps(out))
    return 0


def _cmd_compact(a) -> int:
    from .build.compact import compact_index

    man = compact_index(a.index)
    print(json.dumps({"num_docs": man["num_docs"]}))
    return 0


def _cmd_snapshot(a) -> int:
    from .build.snapshot import snapshot_index

    out = snapshot_index(a.index, a.dest)
    print(json.dumps(out))
    return 0


def _cmd_restore(a) -> int:
    from .build.snapshot import restore_index

    out = restore_index(a.snap, a.dest)
    print(json.dumps(out))
    return 0


def _cmd_bm25(a) -> int:
    from .ops.bm25 import bm25_topk

    t = bm25_topk("", terms=tuple(a.terms), k=a.k, index_dir=a.index)
    for d, s in zip(t.column("doc_id").to_pylist(),
                    t.column("score").to_pylist()):
        print(f"{d}\t{s}")
    return 0


def _cmd_query(a) -> int:
    from .query.json_executor import run_json_query
    from .query.json_reader import JsonIndexReader

    rows = run_json_query(JsonIndexReader(a.index), a.query)
    for r in rows:
        print(json.dumps(r, ensure_ascii=False))
    return 0


def _cmd_stats(a) -> int:
    with open(os.path.join(a.index, "manifest.json")) as f:
        m = json.load(f)
    print(json.dumps({
        "nested": bool(m.get("nested")), "num_docs": m["num_docs"],
        "num_buckets": m["num_buckets"], "num_ranges": m["num_ranges"],
        "segments": len(m["segments"]), "docmap": len(m["docmap"]),
        "stats": len(m["stats"]), "values": len(m.get("values", [])),
        "metrics": m.get("metrics", {}),
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="noise_ray.cli",
                                description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("index")
    b.add_argument("src", nargs="+")
    b.add_argument("--fields", default="text,role,tool")
    b.add_argument("--key-cols", default="conv_id,turn_idx")

    bj = sub.add_parser("build-json")
    bj.add_argument("index")
    bj.add_argument("src", nargs="+")

    for name in ("merge", "merge-json"):
        m = sub.add_parser(name)
        m.add_argument("index")
        m.add_argument("src", nargs="+")
        m.add_argument("--dedup-keys", action="store_true",
                       help="upsert semantics for overlapping corpora: "
                            "tombstone key collisions (later source wins)")

    for name in ("split", "split-json"):
        sp = sub.add_parser(name)
        sp.add_argument("index")
        sp.add_argument("out", nargs="+")
        sp.add_argument("--cuts", default=None)

    c = sub.add_parser("compact")
    c.add_argument("index")

    s = sub.add_parser("snapshot")
    s.add_argument("index")
    s.add_argument("dest")

    r = sub.add_parser("restore")
    r.add_argument("snap")
    r.add_argument("dest")

    q = sub.add_parser("bm25")
    q.add_argument("index")
    q.add_argument("terms", nargs="+")
    q.add_argument("-k", type=int, default=10)

    nq = sub.add_parser("query")
    nq.add_argument("index")
    nq.add_argument("query")

    st = sub.add_parser("stats")
    st.add_argument("index")

    a = p.parse_args(argv)
    owns = a.cmd != "stats" and _ensure_ray()
    try:
        if a.cmd == "build":
            return _cmd_build(a)
        if a.cmd == "build-json":
            return _cmd_build_json(a)
        if a.cmd in ("merge", "merge-json"):
            return _cmd_merge(a)
        if a.cmd in ("split", "split-json"):
            from .build.merge import split_index

            cuts = ([int(x) for x in a.cuts.split(",")]
                    if a.cuts else None)
            mans = split_index(a.index, list(a.out), cuts)
            print(json.dumps([m["num_docs"] for m in mans]))
            return 0
        if a.cmd == "compact":
            return _cmd_compact(a)
        if a.cmd == "snapshot":
            return _cmd_snapshot(a)
        if a.cmd == "restore":
            return _cmd_restore(a)
        if a.cmd == "bm25":
            return _cmd_bm25(a)
        if a.cmd == "query":
            return _cmd_query(a)
        if a.cmd == "stats":
            return _cmd_stats(a)
        return 2
    finally:
        if owns:
            import ray

            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
