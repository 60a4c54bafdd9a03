"""The README walk-through's outputs and stdout lines against the
digests pinned in tests/golden.json (rewrite them with
`python tools/golden.py --update`)."""

import copy
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


def test_update_prints_each_moved_digest(tmp_path, monkeypatch, capsys):
    pinned = _pinned()
    moved = copy.deepcopy(pinned)
    moved[0]["stdout"] = "0" * 64
    manifest = tmp_path / "golden.json"
    manifest.write_text(json.dumps(pinned), encoding="utf-8")
    monkeypatch.setattr(golden, "MANIFEST", manifest)
    monkeypatch.setattr(golden, "run_walkthrough", lambda argvs, workdir: moved)
    assert golden.main(["--update"]) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == golden.mismatches(pinned, moved)
    assert json.loads(manifest.read_text(encoding="utf-8")) == moved
    assert golden.main(["--update"]) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == ["no digest moved"]
