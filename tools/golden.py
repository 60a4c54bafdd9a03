"""Pinned digests of the README walk-through.

Runs each `semproto` command of the README's CLI block, in order, as
`python -m semproto ARGV` in one fresh directory that holds
`configs/example.json` under its README-relative path, and takes the
sha256 of the command's stdout and of every file it writes there.
`tests/golden.json` pins those digests; `tests/test_golden.py` reruns
the walk-through and compares them.

    python tools/golden.py            # compare against tests/golden.json
    python tools/golden.py --update   # rewrite tests/golden.json, printing
                                      # each digest that moved
"""

import argparse
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden.json"
CONFIG = "configs/example.json"


def readme_commands(readme: Path = ROOT / "README.md") -> list[list[str]]:
    """The argv of each `semproto` command in the README's first bash
    block under "## CLI", continuation lines joined."""
    text = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = text.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("semproto ")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stamp(path: Path) -> tuple[int, int]:
    # an atomic write renames a new inode over its target
    st = path.stat()
    return st.st_ino, st.st_mtime_ns


def run_walkthrough(argvs, workdir: Path) -> list[dict]:
    """Run each argv in `workdir`; one {"argv", "stdout", "files"} per
    command, "files" mapping each file the command wrote to its sha256.

    A command that exits non-zero raises RuntimeError."""
    (workdir / "configs").mkdir(parents=True, exist_ok=True)
    shutil.copy(ROOT / CONFIG, workdir / CONFIG)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    results = []
    for argv in argvs:
        before = {p: _stamp(p) for p in workdir.rglob("*") if p.is_file()}
        out = subprocess.run([sys.executable, "-m", "semproto", *argv], cwd=workdir,
                             env=env, capture_output=True)
        if out.returncode != 0:
            raise RuntimeError(f"semproto {shlex.join(argv)} exited {out.returncode}: "
                               f"{out.stderr.decode(errors='replace')[-2000:]}")
        written = sorted(p for p in workdir.rglob("*")
                         if p.is_file() and before.get(p) != _stamp(p))
        results.append({
            "argv": list(argv),
            "stdout": _sha256(out.stdout),
            "files": {p.relative_to(workdir).as_posix(): _sha256(p.read_bytes())
                      for p in written},
        })
    return results


def mismatches(pinned: list[dict], got: list[dict]) -> list[str]:
    """One line per digest of `got` that differs from its pin in `pinned`."""
    lines = []
    for want, have in zip(pinned, got):
        cmd = "semproto " + shlex.join(want["argv"])
        if have["stdout"] != want["stdout"]:
            lines.append(f"{cmd}: stdout {have['stdout']} != pinned {want['stdout']}")
        for name in sorted(set(want["files"]) | set(have["files"])):
            a, b = have["files"].get(name), want["files"].get(name)
            if a != b:
                lines.append(f"{cmd}: {name} {a} != pinned {b}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the manifest, printing each digest that moved")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        got = run_walkthrough(readme_commands(), Path(tmp))
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    lines = mismatches(pinned, got)
    if [p["argv"] for p in pinned] != [g["argv"] for g in got]:
        lines.append("the README's commands are not the pinned ones")
    if args.update:
        print("\n".join(lines) or "no digest moved")
        MANIFEST.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} commands to {MANIFEST}")
        return 0
    print("\n".join(lines) or "every digest matches")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
