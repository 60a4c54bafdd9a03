import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_runs(path: Path, peaks: list[float], walls: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for peak, wall in zip(peaks, walls):
            metrics = {"wall_s": {"value": wall}, "setup_s": {"value": 0.1},
                       "peak_rss_mb": {"value": peak}}
            fh.write(json.dumps({"workload": "train-large", "seed": 77, "trace": 0,
                                 "attempted": 4, "failed": 0, "metrics": metrics}) + "\n")


def test_summary_gives_each_metric_its_pairs_and_compare_verdict(tmp_path):
    base_peaks = [56.8 + 0.01 * i for i in range(10)]
    head_peaks = [51.0 + 0.01 * i for i in range(10)]
    walls = [1.0 + 0.01 * (i % 3) for i in range(10)]
    _write_runs(tmp_path / "base.jsonl", base_peaks, walls)
    _write_runs(tmp_path / "head.jsonl", head_peaks, walls)
    summary = _load_ab().summarize(tmp_path / "base.jsonl", tmp_path / "head.jsonl")
    peak = summary["train-large"]["peak_rss_mb"]
    assert peak["pairs"] == [[b, h] for b, h in zip(base_peaks, head_peaks)]
    assert (peak["wins"], peak["n_pairs"], peak["verdict"]) == (10, 10, "improved")
    assert peak["base"]["median"] > peak["head"]["q3"]
    assert summary["train-large"]["wall_s"]["verdict"] == "no change"
    assert summary["train-large"]["fail_frac"]["verdict"] == "no change"


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com",
                           "-c", "commit.gpgsign=false",
                           *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


@pytest.fixture
def bench_changed(tmp_path, monkeypatch):
    """ab.py pointed at a fresh repository whose working perfbench/
    differs from its one commit's; returns the module and the repository."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("# benchmark\n", encoding="utf-8")
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "base")
    (root / "perfbench" / "run.py").write_text("# benchmark, changed\n", encoding="utf-8")
    ab = _load_ab()
    monkeypatch.setattr(ab, "ROOT", root)
    return ab, root


def test_refuses_a_changed_benchmark_without_the_flag(bench_changed, capsys):
    ab, root = bench_changed

    def no_run(*args):
        raise AssertionError("a benchmark ran")

    ab.run_side = no_run
    assert ab.main(["HEAD"]) == 2
    assert "--allow-bench-change" in capsys.readouterr().err
    assert not list(root.glob("BENCH_*.json"))


def test_allow_bench_change_runs_and_records_both_trees(bench_changed):
    ab, root = bench_changed
    base_tree = _git(root, "rev-parse", "HEAD:perfbench")
    ran = []

    def fake_run(side_root, workload, seed, seconds, out):
        # one result line per run, as perfbench/run.py --out appends it
        ran.append((side_root.name, workload))
        metrics = {"wall_s": {"value": 1.0}, "setup_s": {"value": 0.1},
                   "peak_rss_mb": {"value": 40.0}}
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": workload, "seed": seed, "trace": 0,
                                 "attempted": 1, "failed": 0, "env": {},
                                 "metrics": metrics}) + "\n")

    ab.run_side = fake_run
    assert ab.main(["HEAD", "--pairs", "2", "--allow-bench-change"]) == 0
    assert sorted(set(ran)) == sorted((side, w) for side in ("base", "head")
                                      for w in ab.WORKLOADS)
    [bench] = root.glob("BENCH_*-dirty.json")
    trees = json.loads(bench.read_text(encoding="utf-8"))["perfbench_tree"]
    # the head tree is the working perfbench/, as committing it would record
    _git(root, "commit", "-q", "-am", "head")
    assert trees == {"base": base_tree, "head": _git(root, "rev-parse", "HEAD:perfbench")}
    assert trees["base"] != trees["head"]
