"""Every golden invocation reproduces its exit code and output bytes."""

import json

from golden import CASES, MANIFEST, run_cases


def test_golden_outputs_match_the_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    assert [e["argv"] for e in expected] == CASES, "CASES changed; rewrite the manifest"
    actual = run_cases(tmp_path.resolve())
    changed = [" ".join(a["argv"]) for a, e in zip(actual, expected) if a != e]
    assert not changed, "golden outputs changed:\n" + "\n".join(changed)
