"""The nested engine's parity gate: run the reference's OWN repl-test
transcripts (/root/reference/repl-tests/*.noise) through the REPL's test
mode and require byte-identical output.

The .noise files are self-verifying: in test mode the reference REPL
echoes commands, preserves blank/comment lines, drops expected-output
lines from the input, and prints actual results — so a correct engine
reproduces the file exactly (src/repl.rs:19-66).  These transcripts cover
nested shredding, array-context booleans, NOT existence quirks, bind
variables, exact/range/phrase matches, GeoJSON bbox intersection, f32
scoring decimals, collation, group aggregates, limits, parameters,
deletion/update batch semantics and the reference's JSON rendering.
The eleven reference transcripts run where that directory exists; without
it this file skips, and the in-repo regression transcripts
(tests/golden/*.noise, run by test_golden_scripts.py) still gate the mode.
"""

from __future__ import annotations

import difflib
import os

import pytest

REPL_TESTS = "/root/reference/repl-tests"

TRANSCRIPTS = [
    "not", "query_basic", "bind_var", "limit", "ranges", "collation",
    "deletion_updates", "scoring", "group", "parameters", "geojson",
]

pytestmark = pytest.mark.skipif(
    not os.path.isdir(REPL_TESTS),
    reason="reference repl-tests not available")


@pytest.mark.parametrize("name", TRANSCRIPTS)
def test_transcript_byte_identical(name, tmp_path):
    from noise_ray.repl import run_noise_transcript

    with open(os.path.join(REPL_TESTS, f"{name}.noise")) as f:
        text = f.read()
    out = run_noise_transcript(text, str(tmp_path))
    if out != text:
        diff = "\n".join(difflib.unified_diff(
            text.splitlines(), out.splitlines(),
            fromfile="expected", tofile="actual", lineterm=""))
        raise AssertionError(f"{name}.noise output diverged:\n{diff}")
