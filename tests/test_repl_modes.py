"""The one REPL's two modes past the golden transcripts: the statement
lexer never cuts inside a string literal, file mode dumps a nested index's
keys in the reference's shapes, and the test mode keeps one index build
per document set on disk."""

import glob
import io
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq


def test_semicolon_inside_a_string(ray_session, tmp_path):
    from noise_ray.repl import run

    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "conv_id": pa.array(["a", "b"]),
        "turn_idx": pa.array([0, 0], pa.int32()),
        "role": pa.array(["user", "user"]),
        "text": pa.array(["a;b", "c d"]),
        "tool": pa.array([None, None], pa.string()),
        "ts": pa.array([0, 1], pa.timestamp("us")),
    }), corpus)
    idx = str(tmp_path / "idx")
    out = io.StringIO()
    run(io.StringIO(
        f'create {idx} ; add {corpus} ; commit ;\n'
        'params {"p": "a;b"} ; find {text: ==@p} return ._id ;\n'
        'find {text: =="a;b"}\nreturn ._id ; find {text: =="a\\";b"} ;\n'
        'find {text: =="c d} ;\n'  # a stray quote ends with its line
        'find {text: =="c d"} return ._id ;'),
        out, interactive=False)
    lines = out.getvalue().splitlines()
    assert lines[1].startswith("committed 2 docs")
    assert [json.loads(l)["doc_id"] for l in lines[2:4]] == [0, 0]
    assert not lines[4].startswith("{")
    assert json.loads(lines[5])["doc_id"] == 1 and len(lines) == 6


def test_nested_dumpkeys(ray_session, tmp_path):
    """File mode routes a nested index through the reference-shape
    dumper: W / V keys under each doc's seq plus I<id>, tombstoned docs
    (deleted or upserted away) skipped."""
    from noise_ray.repl import Repl

    d = str(tmp_path)
    for name, docs in (("a", [{"_id": "a", "t": "quick fox"},
                              {"_id": "b", "t": "lazy dog", "n": [5]}]),
                       ("b", [{"_id": "b", "t": "lazy cat"},
                              {"_id": "c", "t": "owl"}])):
        with open(f"{d}/{name}.jsonl", "w") as f:
            f.writelines(json.dumps(doc) + "\n" for doc in docs)
    out = io.StringIO()
    r = Repl(out)

    def run(*stmts):
        out.seek(0)
        out.truncate()
        for s in stmts:
            r.execute(s)
        return out.getvalue().splitlines()

    assert run(f"create {d}/idx", "fields json", f"add {d}/a.jsonl",
               "commit", "dumpkeys")[2:] == [
        "Ia", "Ib", "V0#._id", "V0#.t", "V1#._id", "V1#.n$0", "V1#.t",
        "W._id!a#0,", "W._id!b#1,", "W.t!dog#1,", "W.t!fox#0,",
        "W.t!lazi#1,", "W.t!quick#0,"]
    assert run("del a", "dumpkeys") == [
        "ok (1 tombstoned)", "Ib", "V1#._id", "V1#.n$0", "V1#.t",
        "W._id!b#1,", "W.t!dog#1,", "W.t!lazi#1,"]
    keys = run(f"add {d}/b.jsonl", "commit", "dumpkeys")[2:]
    assert [k for k in keys if k.startswith("I")] == ["Ib", "Ic"]
    assert "W.t!dog#1," not in keys and "V1#.n$0" not in keys
    assert any(k.startswith("W.t!cat#") for k in keys)


def test_transcript_keeps_one_build(tmp_path):
    from noise_ray.repl import run_noise_transcript

    text = "create t ;\n" + "".join(
        f'add {{"_id": "{i}", "w": "fox"}} ;\nfind {{w: ~="fox"}} ;\n'
        for i in range(3))
    out = run_noise_transcript(text, str(tmp_path))
    assert out.endswith('[\n"0",\n"1",\n"2"\n]\n')
    assert len(glob.glob(os.path.join(str(tmp_path), "t", "idx-*"))) == 1


def test_nested_del_by_digit_id(ray_session, tmp_path):
    """On a nested index every ``del`` token is an ``_id``, digit strings
    included: ``del 1`` removes the document "1", not doc id 1."""
    from noise_ray.repl import Repl

    d = str(tmp_path)
    with open(f"{d}/a.jsonl", "w") as f:
        f.writelines(json.dumps({"_id": i, "t": "fox"}) + "\n"
                     for i in ("1", "2", "x"))
    out = io.StringIO()
    r = Repl(out)
    for s in (f"create {d}/idx", "fields json", f"add {d}/a.jsonl", "commit",
              "del 1", 'find {t: ~="fox"} return ._id'):
        r.execute(s)
    lines = out.getvalue().splitlines()
    assert lines[-3] == "ok (1 tombstoned)"
    assert sorted(json.loads(l) for l in lines[-2:]) == ["2", "x"]
    r.execute("del 0")
    assert out.getvalue().splitlines()[-1] == "not found: 0"
