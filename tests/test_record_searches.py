import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "record_searches.py"
spec = importlib.util.spec_from_file_location("record_searches", SCRIPT)
record_searches = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_searches)


def test_record_script_writes_and_compares_records(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    assert record_searches.main(["--suite", "smoke", "--out", str(old)]) == 0
    records = json.loads(old.read_text())
    assert len(records) == 2
    for record in records.values():
        assert record["certified"] == 4
        assert float(record["value"]) > 0.99 and len(record["state"]) == 64
    assert record_searches.main(["--compare", str(old), str(old)]) == 0
    key = min(records)
    records[key] = dict(records[key], certified=3)
    new.write_text(json.dumps(records))
    capsys.readouterr()
    assert record_searches.main(["--compare", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{key}: certified differ; certified 4 -> 3")
    assert lines[1].startswith("1 of 2 records differ; 1 certify fewer restarts")


def test_compare_runs_without_entcap(tmp_path):
    # Comparing two record files runs no search, so it needs no entcap: here
    # an entcap that fails to import shadows any installed one.
    (tmp_path / "entcap").mkdir()
    (tmp_path / "entcap" / "__init__.py").write_text("raise ImportError('entcap')\n")
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    record = {"value": "0.5", "certified": 4, "seed": 0, "state": "ab"}
    old.write_text(json.dumps({"a": record, "b": record}))
    new.write_text(json.dumps({"a": record, "b": dict(record, value="0.25")}))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--compare", str(old), str(new)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert run.returncode == 1, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("b: value differ; certified 4 -> 4")
    assert lines[1].startswith("1 of 2 records differ; 0 certify fewer restarts")
