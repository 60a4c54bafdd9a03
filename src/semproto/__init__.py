"""semproto: semantic prototype banks with weakly supervised alignment.

Builds per-class prototypes from generic, state, and scene text
descriptions; scores visual features against them by cosine similarity;
trains with a combined objective of classification cross-entropy and a
confidence-weighted scene alignment loss with verified analytic
gradients; and reproduces component-ablation orderings on a seeded
synthetic benchmark.

The exports load on first use (PEP 562), so importing the package, as
`python -m semproto --version` does, loads neither numpy nor the library.
"""

import importlib

# Each submodule and the names it exports.
_EXPORTS = {
    "config": ("TrainConfig", "WorldSpec", "__version__"),
    "core": ("cosine", "l2_normalize", "log_sigmoid", "sigmoid"),
    "descriptions": (
        "DescriptionSet", "DeterministicToyEncoder", "FixtureEncoder", "encode",
        "generate_descriptions", "render_generic_prompt", "render_scene_prompt",
        "render_state_prompt",
    ),
    "prototypes": (
        "Aggregation", "PrototypeBank", "aggregate_mean", "aggregate_median",
        "aggregate_similarity_weighted", "aggregate_two_stage", "build_bank",
    ),
    "alignment": (
        "LossReport", "PseudoLabelGrid", "assign_pseudo_labels",
        "det_cls_loss", "scene_loss", "scene_loss_and_grad", "scene_similarities",
        "total_loss", "weak_cls_loss",
    ),
    "synthbench": (
        "ProbeModel", "ToyWorld", "build_toy_bank", "evaluate", "generate_world",
        "run_ablation", "select_max_size_proposal", "train",
    ),
    "atomic": (),
    "backend": (),
    "errors": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(name for name in (*_EXPORTS, *_HOME) if not name.startswith("_"))


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
