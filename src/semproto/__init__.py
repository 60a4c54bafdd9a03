"""semproto: semantic prototype banks with weakly supervised alignment.

Builds per-class prototypes from generic, state, and scene text
descriptions; scores visual features against them by cosine similarity;
trains with a combined objective of classification cross-entropy and a
confidence-weighted scene alignment loss with verified analytic
gradients; and reproduces component-ablation orderings on a seeded
synthetic benchmark.
"""

from .config import TrainConfig, WorldSpec, __version__
from .core import cosine, l2_normalize, log_sigmoid, sigmoid
from .descriptions import (
    DescriptionSet,
    DeterministicToyEncoder,
    FixtureDescriptionClient,
    FixtureEncoder,
    encode,
    generate_descriptions,
    render_generic_prompt,
    render_scene_prompt,
    render_state_prompt,
)
from .prototypes import (
    Aggregation,
    PrototypeBank,
    aggregate_mean,
    aggregate_median,
    aggregate_similarity_weighted,
    aggregate_two_stage,
    build_bank,
    classify,
)
from .alignment import (
    LossReport,
    PseudoLabelGrid,
    WeakBatch,
    assign_pseudo_labels,
    det_cls_loss,
    scene_loss,
    scene_loss_and_grad,
    scene_similarities,
    total_loss,
    weak_cls_loss,
)
from .synthbench import (
    ProbeModel,
    ToyWorld,
    build_toy_bank,
    evaluate,
    generate_world,
    run_ablation,
    select_max_size_proposal,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
