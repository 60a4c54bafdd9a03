"""Every pinned digest of `tests/`: the README walk-through and the named pins.

`tests/golden.json` holds both parts. "walkthrough" runs each `semproto`
command of the README's CLI block, in order, as `python -m semproto ARGV`
in one fresh directory that holds `configs/example.json` under its
README-relative path, and pins the sha256 of the command's stdout and of
every file it writes there, keyed by argv. "pins" maps each name that
`pins()` computes in this process to its sha256: the scene and softmax
kernels' (loss, grad) bytes, the `train-large` run record, two small
worlds and every aggregator's bank, as a file and as the toy bank.
`tests/test_golden.py` recomputes both parts and compares them.

    python tools/golden.py            # compare against tests/golden.json
    python tools/golden.py --update   # rewrite tests/golden.json, printing
                                      # each digest that moved

The module top imports only the standard library; `pins()` imports the
package, numpy and perfbench when it runs.
"""

import argparse
import contextlib
import hashlib
import io
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


def pins() -> dict[str, str]:
    """The sha256 of each named pin, computed in this process.

    The kernels and the `train-large` record run on one BLAS thread,
    because the matmuls round differently when OpenBLAS splits them over
    threads. The worlds and the banks run at the inherited thread count,
    so a check at several OPENBLAS_NUM_THREADS shows that their bytes do
    not depend on it. CLI pins run through `entry.main`, each writing its
    `--out` file in a temporary directory."""
    sys.path[:0] = [p for p in map(str, (ROOT / "src", ROOT, ROOT / "perfbench"))
                    if p not in sys.path]
    import numpy as np
    from semproto import entry
    from semproto.backend import one_blas_thread, scene_loss_grad_kernel, softmax_ce_kernel
    from semproto.config import AGGREGATIONS, WorldSpec
    from semproto.synthbench import build_toy_bank, generate_world
    from tests.test_backend import _DEFAULT_SHAPE, _LARGE_SHAPE, kernel_inputs, softmax_inputs
    from tests.test_synthbench import SMALL_WORLD
    from workloads import DEFAULT_SEED, TRAIN_LARGE_SET

    def cli(*argv: str) -> tuple[dict, bytes]:
        """(the stdout record, the `--out` file's bytes) of `semproto ARGV`."""
        with tempfile.TemporaryDirectory() as tmp:
            out, stdout = Path(tmp) / "out", io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = entry.main([*argv, "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"semproto {shlex.join(argv)} exited {code}")
            return json.loads(stdout.getvalue()), out.read_bytes()

    def sets(items) -> list[str]:
        return [arg for item in items for arg in ("--set", item)]

    got = {}
    with one_blas_thread():
        # (loss, grad) bytes over logit scale x tau, per shape and
        # detach_weights: any change to the kernel's arithmetic or
        # summation order moves a digest
        for shape in (_DEFAULT_SHAPE, _LARGE_SHAPE):
            feats, unit, labels = kernel_inputs(*shape)
            for detach in (False, True):
                h = hashlib.sha256()
                for gamma in (0.5, 1.0, 3.0):
                    for tau in (-0.5, 0.25, 0.9):
                        loss, grad = scene_loss_grad_kernel(feats, unit, labels, tau,
                                                            gamma, detach)
                        h.update(np.float64(loss).tobytes())
                        h.update(grad.tobytes())
                got[f"scene-kernel/{shape[0]}/{detach}"] = h.hexdigest()
        for b, c, _, dim in (_DEFAULT_SHAPE, _LARGE_SHAPE):
            feats, unit, labels = softmax_inputs(b, c, dim)
            h = hashlib.sha256()
            for inv_temp in (0.5, 1.0, 5.0, 20.0):
                loss, grad = softmax_ce_kernel(feats, unit, labels, inv_temp)
                h.update(np.float64(loss).tobytes())
                h.update(grad.tobytes())
            got[f"softmax-kernel/{b}"] = h.hexdigest()
        # the benchmark's run at its calibrated seed, where the scene
        # kernel's (B, C*L) buffers exceed L2
        _, record = cli("train", *sets((f"world.seed={DEFAULT_SEED}", *TRAIN_LARGE_SET)))
        got["train-large-record"] = _sha256(record)
    # any change to the random-draw order or the per-row arithmetic of
    # generate_world moves a world digest
    for name, overrides in (("small", {}), ("small-no-det", {"det_per_class": 0})):
        spec = {**SMALL_WORLD, **overrides}
        printed, world = cli("simulate", *sets(f"world.{k}={v}" for k, v in spec.items()))
        digest = json.loads(world)["feature_sha256"]
        if printed["feature_sha256"] != digest:
            raise RuntimeError(f"world/{name}: simulate printed feature_sha256 "
                               f"{printed['feature_sha256']} but wrote {digest}")
        got[f"world/{name}"] = digest
    # The shipped cat and dog each have a state embedding with a negative
    # cosine to their generic one, so the similarity-weighted file bank
    # runs the negative-weight clamp.
    world = generate_world(WorldSpec())
    for strategy in AGGREGATIONS:
        name = strategy.replace("_", "-")
        got[f"bank-file/{name}"] = _sha256(cli("build-bank", "--aggregator", name)[1])
        bank = build_toy_bank(world, strategy=strategy)
        got[f"toy-bank/{name}"] = _sha256(bank.sesp.tobytes())
    return got


def _moved(have: dict, want: dict) -> list[tuple]:
    """(key, have's value, want's value) for each key whose values differ,
    None standing for a missing key."""
    return [(key, have.get(key), want.get(key)) for key in sorted(set(have) | set(want))
            if have.get(key) != want.get(key)]


def mismatches(pinned: dict, got: dict) -> list[str]:
    """One line per named pin of `got` that moved from `pinned`, or that
    only one of them holds, then one per walk-through digest that differs."""
    lines = [f"{name}: {a} != pinned {b}" for name, a, b in _moved(got["pins"], pinned["pins"])]
    for want, have in zip(pinned["walkthrough"], got["walkthrough"]):
        cmd = "semproto " + shlex.join(want["argv"])
        if have["stdout"] != want["stdout"]:
            lines.append(f"{cmd}: stdout {have['stdout']} != pinned {want['stdout']}")
        lines += [f"{cmd}: {name} {a} != pinned {b}"
                  for name, a, b in _moved(have["files"], want["files"])]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the manifest, printing each digest that moved")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        walkthrough = run_walkthrough(readme_commands(), Path(tmp))
    got = {"walkthrough": walkthrough, "pins": pins()}
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    lines = mismatches(pinned, got)
    if [p["argv"] for p in pinned["walkthrough"]] != [g["argv"] for g in walkthrough]:
        lines.append("the README's commands are not the pinned ones")
    if args.update:
        print("\n".join(lines) or "no digest moved")
        MANIFEST.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(walkthrough)} commands and {len(got['pins'])} named pins "
              f"to {MANIFEST}")
        return 0
    print("\n".join(lines) or "every digest matches")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
