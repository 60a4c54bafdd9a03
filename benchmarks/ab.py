"""A/B runs: this checkout against a base revision, on the benchmark.

    python3 benchmarks/ab.py BASE_REV [--pairs 10] [--seconds 6] [--seed 77]
                             [--allow-bench-change]

Checks BASE_REV out into a temporary `git worktree` and, per workload,
runs each side's own `perfbench/run.py --trace 0` in turn, `--pairs`
times, switching which side runs first from one pair to the next. The
head side is this checkout as it stands, uncommitted edits included,
copied beside the worktree: peak RSS moves by up to 0.5 MB with the
length of the checkout's path alone, so both sides run from paths of
the same length. Refuses to run when the two sides' `perfbench/` trees
differ, since the two sides must be measured by the same benchmark code,
unless --allow-bench-change is given: a change to the benchmark itself
is then measured with each side's own benchmark code.

Writes BENCH_<head short sha>.json (with a `-dirty` suffix when tracked
files have uncommitted changes, as `git describe --dirty` marks them) at
the repository root. Per workload and end-to-end metric it holds both
sides' q1/median/q3, the per-pair values and wins, and the verdict of
`perfbench/compare.py`; it also holds both revisions, the git tree hash
of each side's perfbench/ (`perfbench_tree: {base, head}`), the settings
and the environment block of the head side's first run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "perfbench"))
import compare  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git(*args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, env=env).stdout.rstrip()


def perfbench_tree(rev: str | None = None) -> str:
    """The git tree hash of perfbench/ at rev or, without one, of this
    checkout's perfbench/ as it stands (untracked files included, ignored
    ones not), staged into a scratch index so the real one is untouched."""
    if rev is not None:
        return git("rev-parse", f"{rev}:perfbench")
    with tempfile.TemporaryDirectory(prefix="ab-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "--", "perfbench", env=env)
        return git("write-tree", "--prefix=perfbench/", env=env)


def copy_checkout(dest: Path) -> None:
    """This checkout's files as they stand (tracked and untracked, not
    ignored) into dest."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if name and (ROOT / name).is_file():  # a tracked file deleted here is gone
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_side(root: Path, workload: str, seed: int, seconds: float, out: Path) -> None:
    """One `perfbench/run.py --trace 0` run of root's checkout, appended to out."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                    "--out", str(out)],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)


def summarize(base_file: Path, head_file: Path) -> dict:
    """Per workload and metric: quartiles, per-pair values, wins and the
    verdict, all from perfbench/compare.py."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"] + [
        {"name": "fail_frac", "unit": "ratio", "better": "lower", "bound": 0.0}]
    base, head = compare.load(str(base_file)), compare.load(str(head_file))
    out: dict = {}
    for workload, metric, row in compare.rows(base, head, metrics):
        if metric is None:
            out[workload] = {"error": row}
            continue
        (b_q, h_q, wins, n_pairs, verdict) = row
        pairs = [[compare.metric_value(b, metric["name"]), compare.metric_value(h, metric["name"])]
                 for seed in sorted(base[workload])
                 for b, h in zip(base[workload][seed], head[workload].get(seed, []))]
        out.setdefault(workload, {})[metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": dict(zip(("q1", "median", "q3"), b_q)),
            "head": dict(zip(("q1", "median", "q3"), h_q)),
            "pairs": pairs, "wins": wins, "n_pairs": n_pairs, "verdict": verdict,
        }
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base_rev", metavar="BASE_REV")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=77)
    p.add_argument("--allow-bench-change", action="store_true",
                   help="run even when the two sides' perfbench/ trees differ")
    args = p.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        base_rev = git("rev-parse", "--verify", f"{args.base_rev}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"ab: {args.base_rev} is not a commit", file=sys.stderr)
        return 2
    trees = {"base": perfbench_tree(base_rev), "head": perfbench_tree()}
    if trees["base"] != trees["head"] and not args.allow_bench_change:
        print(f"ab: perfbench/ differs between {args.base_rev} and this checkout; "
              "both sides must run the same benchmark (or pass --allow-bench-change)",
              file=sys.stderr)
        return 2
    head_rev = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    label = git("rev-parse", "--short", "HEAD") + ("-dirty" if dirty else "")
    out_path = ROOT / f"BENCH_{label}.json"

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        sides = {"base": tmp / "base", "head": tmp / "head"}
        copy_checkout(sides["head"])
        git("worktree", "add", "--detach", str(sides["base"]), base_rev)
        try:
            files = {side: tmp / f"{side}.jsonl" for side in sides}
            order = {}
            for workload in WORKLOADS:
                for i in range(args.pairs):
                    first, second = ("base", "head") if i % 2 == 0 else ("head", "base")
                    order.setdefault(workload, []).append(first)
                    for side in (first, second):
                        print(f"ab: {workload} pair {i + 1}/{args.pairs} {side}",
                              file=sys.stderr)
                        run_side(sides[side], workload, args.seed, args.seconds, files[side])
            results = summarize(files["base"], files["head"])
            env = json.loads(files["head"].read_text(encoding="utf-8").splitlines()[0])["env"]
        finally:
            git("worktree", "remove", "--force", str(sides["base"]))

    report = {
        "base": {"rev": base_rev, "asked": args.base_rev},
        "head": {"rev": head_rev, "dirty": dirty,
                 "changed": git("status", "--porcelain").splitlines()},
        "perfbench_tree": trees,
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "trace": 0, "first_each_pair": order},
        "env": env,
        "workloads": results,
    }
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, metrics in results.items():
        for name, m in metrics.items():
            if name == "error":
                print(f"{workload:<18} {m}")
                continue
            print(f"{workload:<18} {name:<12} base {m['base']['median']:.4g} "
                  f"head {m['head']['median']:.4g}  {m['wins']}/{m['n_pairs']}  {m['verdict']}")
    print(f"ab: wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
