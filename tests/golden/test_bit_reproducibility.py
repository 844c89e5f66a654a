"""Golden test: the optimized hot path must be *bit-identical* to the seed.

The stored golden was captured before the PR-3 hot-path optimizations; if
this test fails, an "optimization" changed simulated behavior (different
RNG draw order, reordered float arithmetic, dropped evaluation) and must
be fixed, not regenerated around — see DESIGN.md's determinism contract.
"""

import json
import os

from tests.golden.golden_utils import (
    FAST_CITY_PATH,
    GOLDEN_PATH,
    fast_city_snapshot,
    golden_snapshot,
    load_golden,
    write_golden,
)


def test_pinned_run_matches_golden():
    snapshot = golden_snapshot()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        write_golden(snapshot)
    assert GOLDEN_PATH.exists(), (
        "golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = load_golden()
    assert snapshot["config"] == golden["config"], "pinned config drifted"
    assert snapshot["counters"] == golden["counters"]
    assert snapshot["final_parents"] == golden["final_parents"]
    # Compare via canonical JSON so a mismatch shows a readable diff.
    assert json.dumps(snapshot["etx_tables"], sort_keys=True) == json.dumps(
        golden["etx_tables"], sort_keys=True
    )


def test_fast_city_run_matches_golden():
    """The ``fast`` medium at city shape: counters, parents and ETX tables
    pinned, so set-up and hot-path work on that backend stays exact too."""
    snapshot = fast_city_snapshot()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        write_golden(snapshot, FAST_CITY_PATH)
    golden = json.loads(FAST_CITY_PATH.read_text())
    assert snapshot["config"] == golden["config"], "pinned config drifted"
    assert snapshot["counters"] == golden["counters"]
    assert snapshot["final_parents"] == golden["final_parents"]
    assert snapshot["etx_tables_sha256"] == golden["etx_tables_sha256"]


def test_snapshot_is_self_reproducible():
    """Two in-process runs of the pinned scenario are identical."""
    assert golden_snapshot() == golden_snapshot()
