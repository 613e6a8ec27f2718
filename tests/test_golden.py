"""Every golden CLI case prints and writes exactly the recorded bytes.

Regenerate the recorded files with ``python tests/golden_cli.py`` after a
deliberate output change, and say which files changed and why.
"""

import json

import pytest

from golden_cli import CASES, MANIFEST, expected, observed


def test_manifest_lists_exactly_the_cases():
    recorded = json.loads(MANIFEST.read_text())
    assert {cid: entry["argv"] for cid, entry in recorded.items()} == {
        cid: argv for cid, argv, _ in CASES
    }


@pytest.mark.parametrize("cid, argv, files", CASES, ids=[c[0] for c in CASES])
def test_golden_case(cid, argv, files):
    assert observed(argv, files) == expected(cid)
