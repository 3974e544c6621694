"""Golden ``repro serve --json`` reports: virtual latencies pinned.

The serve report times every request on the scheduler's virtual clock
(Table 3 I/O milliseconds per step plus the dispatch quantum), so it
carries no wall-clock field and is pinned whole.  Any change to which
pages an operator fixes, or on which ``next()`` call, moves a latency
or the interleaving digest here.  Three configurations: the default
one; a 4,000-byte memory budget whose hash tables overflow so every
query takes the partitioned fallback; and a cold run with both caches
off, where every request steps a compiled operator tree.

To re-record after a deliberate model change::

    PYTHONPATH=src python -m tests.serve.test_serve_golden --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).with_name("serve_reports.json")

#: Config name -> ``repro serve`` arguments (``--json`` is added).
CONFIGS = {
    "default": [],
    "fallback": [
        "--memory-budget", "4000", "--divisor", "30", "--quotient", "80",
        "--no-plan-cache", "--no-result-cache",
    ],
    "cold": [
        "--divisor", "30", "--quotient", "80", "--clients", "4",
        "--requests", "25", "--no-plan-cache", "--no-result-cache",
    ],
}


def serve_report(args: list[str]) -> dict:
    """Run ``repro serve --json`` in-process and parse its report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["serve", *args, "--json"]) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_config(golden):
    assert sorted(golden) == sorted(CONFIGS)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_report_matches_golden(golden, config):
    assert serve_report(CONFIGS[config]) == golden[config]


def test_fallback_config_takes_the_fallback(golden):
    assert golden["fallback"]["fallbacks"] > 0
    assert golden["default"]["fallbacks"] == 0
    assert golden["cold"]["fallbacks"] == 0


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    reports = {name: serve_report(args) for name, args in sorted(CONFIGS.items())}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
