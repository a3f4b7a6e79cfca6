"""The committed benchmark records: every performance claim cites a BENCH_<n>.json at the
repository root, and each record names a metric and a workload the benchmark declares."""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
SHARED_KEYS = {"change", "claimed", "command", "machine", "parent_commit", "protocol", "workloads"}


def _declared():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {workload["name"] for workload in benchmark["workloads"]},
        {metric["name"] for metric in benchmark["end_to_end"] + benchmark["per_layer"]},
    )


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_parses_with_the_shared_keys_and_a_declared_claim(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert SHARED_KEYS <= record.keys()
    workloads, metrics = _declared()
    assert record["claimed"]["workload"] in workloads
    assert record["claimed"]["metric"] in metrics


@pytest.mark.parametrize("document", ["README.md", "CHANGES.md", "ROADMAP.md"])
def test_every_cited_record_exists(document):
    cited = set(re.findall(r"BENCH_\d+\.json", (ROOT / document).read_text(encoding="utf-8")))
    assert sorted(name for name in cited if not (ROOT / name).is_file()) == []
