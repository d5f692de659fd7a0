"""The README's code runs against the package as it is, its command-line
flags exist, the acceptance messages point at entries that DECISIONS.md
holds, and every benchmark record at the repository root states what
ROADMAP.md asks of it."""

import json
import re
from pathlib import Path

import pytest

import obsent.cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python block"
    assert all("from obsent import" in block for block in blocks)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_line_flags_exist(capsys):
    section = README.read_text().split("## Command line")[1].split("\n## ")[0]
    named = set(re.findall(r"--[A-Za-z][A-Za-z-]*", section))
    assert named, "README's command-line section names no flag"
    with pytest.raises(SystemExit):
        obsent.cli.main(["run", "--help"])
    listed = set(re.findall(r"^  (--[A-Za-z-]+)", capsys.readouterr().out, flags=re.M))
    assert named <= listed, f"README names flags that obsent run lacks: {sorted(named - listed)}"


def test_acceptance_messages_point_at_ledger_entries():
    cited = set(re.findall(r"DECISIONS\.md, criterion (\d+)", (ROOT / "tests" / "test_acceptance.py").read_text()))
    assert cited, "no acceptance message cites a DECISIONS.md entry"
    headings = set(re.findall(r"^## Criterion (\d+)\b", (ROOT / "DECISIONS.md").read_text(), flags=re.M))
    assert cited <= headings, f"DECISIONS.md has no entry for criteria {sorted(cited - headings)}"


def test_bench_records_state_environment_and_both_medians():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, "no BENCH_*.json at the repository root"
    metrics = {metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for path in records:
        record = json.loads(path.read_text())
        assert record.get("parent_commit"), path.name
        assert {"threads", "numpy", "blas"} <= set(record["environment"]), path.name
        assert record["workloads"], path.name
        if "claim" in record:  # a claimed gain names a measured workload and an end-to-end metric
            assert record["claim"]["workload"] in record["workloads"], path.name
            assert record["claim"]["metric"] in metrics, path.name
        for name, workload in record["workloads"].items():
            for side in ("parent", "change"):
                for metric in ("run_s", "cpu_s", "peak_rss_mb", "setup_s"):
                    median = workload[side]["end_to_end"][metric]["median"]
                    assert isinstance(median, float) and median > 0, f"{path.name}: {name} {side} {metric}"
