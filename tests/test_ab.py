import importlib.util
import json
from pathlib import Path

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
