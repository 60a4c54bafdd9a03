"""The benchmark's span tracer (perfbench/spans.py) wraps functions where
the program's modules bind them. A refactor that drops or renames one of
those bindings must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from semproto import cli

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

SMALL = [
    "--set", "world.dim=20",
    "--set", "world.n_classes=6",
    "--set", "world.n_base=4",
    "--set", "world.k_states=3",
    "--set", "world.l_scenes=3",
    "--set", "world.det_per_class=6",
    "--set", "world.weak_per_class=4",
    "--set", "world.test_per_class=12",
    "--set", "train.steps=5",
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_train_runs_clean(tmp_path, capsys):
    spans = _load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        code = cli.main(["train", *SMALL, "--out", str(tmp_path / "run.jsonl")])
    capsys.readouterr()
    assert code == 0
    assert [s.name for s in tracer.spans if s.error] == []
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "synthbench.train", "backend.scene_loss_grad_kernel"} <= names
    assert not hasattr(cli.main, "__wrapped__")  # installed() restored the bindings
