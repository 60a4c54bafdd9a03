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


def test_traced_train_times_each_loss_term(tmp_path, capsys):
    # det_cls_loss and weak_cls_loss run the same kernel; the kernel's time
    # is split between them by the span that calls it
    spans = _load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        code = cli.main(["train", *SMALL, "--out", str(tmp_path / "run.jsonl")])
    capsys.readouterr()
    assert code == 0
    calls = {}
    for s in tracer.spans:
        calls[s.name, s.parent_name] = calls.get((s.name, s.parent_name), 0) + 1
    steps = 5
    for name in ("det_cls_loss", "weak_cls_loss", "scene_loss_and_grad"):
        assert calls["alignment." + name, "synthbench.train"] == steps
    for caller in ("alignment.det_cls_loss", "alignment.weak_cls_loss"):
        assert calls["backend.softmax_ce_kernel", caller] == steps
    assert calls["backend.scene_loss_grad_kernel", "alignment.scene_loss_and_grad"] == steps


def test_traced_ablation_runs_clean(tmp_path, capsys):
    # The ablation trains in forked workers: their spans stay in the
    # workers' copies of the tracer, and only the parent's spans land here.
    spans = _load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        code = cli.main(["ablate", *SMALL, "--grid", "components", "--seeds", "2",
                         "--out", str(tmp_path / "ablate.jsonl")])
    capsys.readouterr()
    assert code == 0
    assert [s.name for s in tracer.spans if s.error] == []
    assert "cli.main" in {s.name for s in tracer.spans}
    assert not hasattr(cli.main, "__wrapped__")
