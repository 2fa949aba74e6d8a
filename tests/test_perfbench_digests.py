"""tools/check_perfbench_digests.py: pass/fail/update logic.

The perfbench runs themselves are replaced by a stub; CI runs the real
check.  Each test works on a copy of the committed golden file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "benchmarks" / "perfbench_digests.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_perfbench_digests", ROOT / "tools" / "check_perfbench_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool(tmp_path, monkeypatch):
    module = _load_tool()
    copy = tmp_path / "golden.json"
    copy.write_text(GOLDEN.read_text())
    monkeypatch.setattr(module, "GOLDEN", copy)
    return module


def _observe(tool, monkeypatch, digests):
    monkeypatch.setattr(tool, "observed_digest", lambda w, seed, seconds: digests[w])


def _golden_digests(path):
    return {e["workload"]: e["digest"] for e in json.loads(path.read_text())["digests"]}


def test_committed_golden_covers_every_workload_at_seed_1():
    golden = json.loads(GOLDEN.read_text())
    assert golden["seconds"] == 5
    assert [(e["workload"], e["seed"]) for e in golden["digests"]] == [
        ("paper_b_vbr", 1), ("crowd_flash_4096", 1), ("fed_8x32", 1)]


def test_matching_digests_pass(tool, monkeypatch):
    _observe(tool, monkeypatch, _golden_digests(tool.GOLDEN))
    assert tool.main([]) == 0


def test_changed_digest_fails_and_leaves_golden_alone(tool, monkeypatch):
    before = tool.GOLDEN.read_text()
    observed = _golden_digests(tool.GOLDEN)
    observed["fed_8x32"] = "0000000000000000"
    _observe(tool, monkeypatch, observed)
    assert tool.main([]) == 1
    assert tool.GOLDEN.read_text() == before


def test_update_writes_observed_digests(tool, monkeypatch):
    observed = _golden_digests(tool.GOLDEN)
    observed["paper_b_vbr"] = "1111111111111111"
    _observe(tool, monkeypatch, observed)
    assert tool.main(["--update"]) == 0
    assert _golden_digests(tool.GOLDEN) == observed
    assert tool.main([]) == 0


def test_update_refuses_a_run_without_digest(tool, monkeypatch):
    before = tool.GOLDEN.read_text()
    observed = _golden_digests(tool.GOLDEN)
    observed["crowd_flash_4096"] = None
    _observe(tool, monkeypatch, observed)
    assert tool.main(["--update"]) == 1
    assert tool.GOLDEN.read_text() == before
    assert tool.main([]) == 1
