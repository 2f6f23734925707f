"""The json output of every command line of scripts/cli_dump.py at 64 and
192 bits, run through cli.main in this process, against the text that
tests/cli_dump.json records (stdout, stderr and exit status).  A change
that alters any of them rewrites the record with
`python scripts/cli_dump.py --write` and names the difference."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _dump_script():
    spec = importlib.util.spec_from_file_location("cli_dump", ROOT / "scripts" / "cli_dump.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_output_matches_the_record():
    dump = _dump_script()
    recorded = json.loads(dump.RECORD.read_text())
    subset = {key for key, _, full in dump.runs() if full}
    assert len(subset) == 2 * len(dump.LINES)
    assert all("stdout" in recorded[key] for key in subset)
    diffs = dump.differences({key: recorded[key] for key in subset}, dump.dump(subset))
    assert not diffs, "\n".join(diffs)
