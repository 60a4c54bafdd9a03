"""The README walk-through's outputs and stdout lines against the
digests pinned in tests/golden.json (rewrite them with
`python tools/golden.py --update`)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_golden()


def _pinned() -> list[dict]:
    return json.loads(golden.MANIFEST.read_text(encoding="utf-8"))


def test_pins_cover_the_readme_walkthrough():
    assert [c["argv"] for c in _pinned()] == golden.readme_commands()


def test_walkthrough_matches_its_pinned_digests(tmp_path):
    pinned = _pinned()
    got = golden.run_walkthrough([c["argv"] for c in pinned], tmp_path)
    assert golden.mismatches(pinned, got) == []
