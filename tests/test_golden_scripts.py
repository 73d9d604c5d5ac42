"""Golden REPL transcripts, the reference's conformance style
(/root/reference/tests/repl_tests.rs:10-71): replay each
tests/golden/*.script through the line protocol and byte-compare the full
output against its .expected file, and replay each tests/golden/*.noise
reference-protocol transcript through the test-mode REPL and byte-compare
it against itself.  On mismatch a .reject file is written next to the
golden, mirroring the reference harness."""

import glob
import io
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _write(d, name, rows):
    p = os.path.join(d, name)
    pq.write_table(pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array([r[3] for r in rows]),
        "tool": pa.array([None] * len(rows), pa.string()),
        "ts": pa.array(range(len(rows)), pa.timestamp("us")),
    }), p)
    return p


CORPORA = {
    "{CORPUS0}": [("a", 0, "user", "the quick brown fox"),
                  ("a", 1, "assistant", "lazy dogs sleep"),
                  ("b", 0, "user", "fox hunting season")],
    "{CORPUS1}": [("c", 0, "user", "another quick fox")],
}


@pytest.mark.parametrize("script_path",
                         sorted(glob.glob(os.path.join(GOLDEN_DIR,
                                                       "*.script"))),
                         ids=os.path.basename)
def test_golden_script(ray_session, tmp_path, script_path):
    from noise_ray.repl import run

    script = open(script_path).read()
    script = script.replace("{IDX}", str(tmp_path / "idx"))
    for i, (ph, rows) in enumerate(CORPORA.items()):
        script = script.replace(ph, _write(str(tmp_path), f"c{i}.parquet",
                                           rows))
    out = io.StringIO()
    run(io.StringIO(script), out, interactive=False)
    got = out.getvalue()
    expected_path = script_path.replace(".script", ".expected")
    want = open(expected_path).read()
    if got != want:
        with open(script_path.replace(".script", ".reject"), "w") as f:
            f.write(got)
    assert got == want, f"transcript mismatch; wrote {script_path}.reject"


@pytest.mark.parametrize("noise_path",
                         sorted(glob.glob(os.path.join(GOLDEN_DIR,
                                                       "*.noise"))),
                         ids=os.path.basename)
def test_golden_noise(tmp_path, noise_path):
    """Reference-protocol transcripts are self-verifying: in test mode the
    REPL echoes commands, keeps blank and `#` lines and drops the expected
    output lines, so a faithful run reproduces the file byte for byte."""
    from noise_ray.repl import run_noise_transcript

    want = open(noise_path).read()
    got = run_noise_transcript(want, str(tmp_path))
    if got != want:
        with open(noise_path + ".reject", "w") as f:
            f.write(got)
    assert got == want, f"transcript mismatch; wrote {noise_path}.reject"
