import importlib.util
import json
import sys
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "pair_timing", Path(__file__).parent.parent / "tools" / "pair_timing.py")
pair_timing = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pair_timing)


def test_a_tree_timed_against_itself_prints_identical_documents(capsys):
    # tree B is this checkout again, imported as abeldiff_b: a separate copy
    # of every module, with its own caches and haupt groups
    code = pair_timing.main(["--workloads", "verify-vandermonde", "--limit", "2",
                             "--repeats", "2"])
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(lines[-1])
    assert code == 0
    assert report["differing"] == []
    summary, = report["summaries"]
    assert (summary["requests"], summary["identical"]) == (2, 2)
    assert 0 <= summary["b_faster"] <= 2
    assert summary["a_total_s"] > 0 and summary["b_total_s"] > 0
    rows = [line.split() for line in lines[:2]]
    assert [(row[0], row[4], row[5]) for row in rows] == \
        [("verify-vandermonde", "0", "same")] * 2
    assert sys.modules["abeldiff_b"].cli is not sys.modules["abeldiff"].cli
