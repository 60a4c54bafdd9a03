"""Every pin of tests/ against its digest in tests/golden.json: the README
walk-through's outputs and stdout lines, and the named pins that
tools/golden.py computes in-process (the kernels' bytes and the
`train-large` record on one BLAS thread; the worlds and every
aggregator's bank at the inherited thread count). Rewrite them all with
`python tools/golden.py --update`."""

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


def _pinned() -> dict:
    return json.loads(golden.MANIFEST.read_text(encoding="utf-8"))


def test_pins_cover_the_readme_walkthrough():
    assert [c["argv"] for c in _pinned()["walkthrough"]] == golden.readme_commands()


def test_walkthrough_matches_its_pinned_digests(tmp_path):
    pinned = _pinned()
    got = golden.run_walkthrough([c["argv"] for c in pinned["walkthrough"]], tmp_path)
    lines = golden.mismatches(pinned, {**pinned, "walkthrough": got})
    assert not lines, "\n".join(lines)


def test_named_pins_match_their_digests():
    pinned = _pinned()
    lines = golden.mismatches(pinned, {**pinned, "pins": golden.pins()})
    assert not lines, "\n".join(lines)


def test_update_prints_each_moved_digest(tmp_path, monkeypatch, capsys):
    pinned = _pinned()
    moved = copy.deepcopy(pinned)
    moved["walkthrough"][0]["stdout"] = "0" * 64
    moved["pins"]["world/small"] = "1" * 64
    moved["pins"]["new-pin"] = "2" * 64
    manifest = tmp_path / "golden.json"
    manifest.write_text(json.dumps(pinned), encoding="utf-8")
    monkeypatch.setattr(golden, "MANIFEST", manifest)
    monkeypatch.setattr(golden, "run_walkthrough", lambda argvs, workdir: moved["walkthrough"])
    monkeypatch.setattr(golden, "pins", lambda: moved["pins"])
    assert golden.main(["--update"]) == 0
    printed = capsys.readouterr().out.splitlines()[:-1]
    assert printed == golden.mismatches(pinned, moved)
    assert printed[:2] == [f"new-pin: {'2' * 64} != pinned None",
                           f"world/small: {'1' * 64} != pinned {pinned['pins']['world/small']}"]
    assert json.loads(manifest.read_text(encoding="utf-8")) == moved
    assert golden.main(["--update"]) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == ["no digest moved"]
