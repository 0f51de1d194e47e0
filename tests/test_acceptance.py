"""Acceptance gate: every criterion runs at its stated tolerance.

One test per criterion prints a PASS/FAIL line; the final test runs the
whole suite through the CLI and asserts byte-identical reports across
repeat runs.
"""

import json

import pytest

from medianjn import acceptance
from medianjn.cli import main

CRITERION_IDS = sorted(k for k in acceptance.CRITERIA if k != 12)


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_criterion(cid):
    result = acceptance.CRITERIA[cid]()
    print(f"{'PASS' if result.passed else 'FAIL'} {result.cid} {result.name}: {result.detail}")
    assert result.passed, result.detail


def test_criterion_12_cli_roundtrip(capsys):
    code = main(["verify-all", "--output", "json"])
    out = capsys.readouterr().out
    print("verify-all exit code:", code)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["cases"]) == 12
    for case in payload["cases"]:
        assert set(case) == {"id", "name", "pass", "detail"}
        assert case["pass"] is True

    again = acceptance.report_json(acceptance.run_all())
    assert payload == again, "two runs must produce identical reports"
    print("PASS C12 cli-roundtrip: deterministic across runs")
