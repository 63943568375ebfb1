import importlib.util
import json
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
