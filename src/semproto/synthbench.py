"""Seeded synthetic benchmark: a generative world with class, state,
and scene-context factors, max-size proposal selection, a linear-probe
trainer driven by the alignment losses, and the ablation harness.

Box-supervised features exist only for base classes; weakly labeled
images exist for all classes, and their max-size proposal additionally
carries a scene-context term, which is exactly the visual/textual
mismatch the scene alignment loss targets. Everything is deterministic
per seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .alignment import (
    LossReport,
    WeakBatch,
    det_cls_loss,
    scene_loss_and_grad,
    total_loss,
    weak_cls_loss,
)
from .config import TrainConfig, WorldSpec, __version__, derive_seed, replace, resolved_config
from .core import l2_normalize
from .descriptions import DescriptionSet, DeterministicToyEncoder
from .errors import DimensionMismatch, DivergenceDetected, EmptyProposals, EmptyTestSet
from .prototypes import Aggregation, PrototypeBank, aggregate, build_bank


@dataclass(frozen=True)
class ToyWorld:
    """Generated splits plus the ground-truth factor directions.

    Each split is one feature matrix and one int64 label vector. A weak
    image holds its region proposals, not a pseudo-box: training picks
    one per image with select_max_size_proposal(weak_areas, weak_proposals).
    """

    spec: WorldSpec
    class_dirs: np.ndarray       # (n_classes, dim)
    state_dirs: np.ndarray       # (n_classes, k_states, dim)
    scene_dirs: np.ndarray       # (l_scenes, dim)
    det_x: np.ndarray            # (n_det, dim) box features, base classes only
    det_y: np.ndarray            # (n_det,)
    weak_areas: np.ndarray       # (n_weak, proposals_per_image)
    weak_proposals: np.ndarray   # (n_weak, proposals_per_image, dim)
    weak_y: np.ndarray           # (n_weak,) image-level labels
    test_x: np.ndarray           # (n_test, dim)
    test_y: np.ndarray           # (n_test,)

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(f"class_{i:02d}" for i in range(self.spec.n_classes))


def _unit_rows(rng: np.random.Generator, shape) -> np.ndarray:
    """Quasi-orthogonal unit directions: normalized Gaussian rows.

    2-D direction sets (classes, scenes) are centered before
    normalization so the set sums to ~zero; without this the scene
    loss's non-cancelling pushes integrate into a runaway bias. State
    directions (3-D, per class) stay uncentered so a class's state
    mixture keeps a nonzero resultant for prototypes to capture.
    """
    v = rng.standard_normal(shape)
    if len(shape) == 2:
        v = v - v.mean(axis=0)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _compose(base_unit: np.ndarray, terms) -> np.ndarray:
    """base + sum(scale * vec), renormalized only if a term was added.

    Skipping the renormalization in the untouched case keeps degenerate
    worlds (all strengths zero) bitwise equal to their factor directions.
    """
    v = base_unit
    added = False
    for scale, vec in terms:
        if scale != 0.0:
            v = v + scale * vec
            added = True
    return l2_normalize(v) if added else base_unit


def _labels(n_classes: int, per_class: int) -> np.ndarray:
    """Class ids 0..n_classes-1, each repeated per_class times."""
    return np.repeat(np.arange(n_classes, dtype=np.int64), per_class)


def generate_world(spec: WorldSpec) -> ToyWorld:
    """Sample factor directions and the three datasets, deterministically.

    Box features:   unit(class + state_strength*state + noise)
    Weak max-prop:  unit(class + state_strength*state
                         + context_strength*scene + noise)
    Test features:  same family as the max-size proposals (context-rich),
                    since inference-time region features carry the same
                    surrounding-context content the pseudo-boxes do.
    Distractor proposals are context-only and never the largest; the
    context-rich proposal's area is forced strictly largest.
    """
    rng = np.random.default_rng(spec.seed)
    dim = spec.dim
    class_dirs = _unit_rows(rng, (spec.n_classes, dim))
    state_dirs = _unit_rows(rng, (spec.n_classes, spec.k_states, dim))
    scene_dirs = _unit_rows(rng, (spec.l_scenes, dim))
    sqrt_dim = math.sqrt(dim)

    def noise() -> np.ndarray:
        return rng.standard_normal(dim) / sqrt_dim

    det_y = _labels(spec.n_base, spec.det_per_class)
    det_x = np.empty((len(det_y), dim))
    for i, c in enumerate(det_y):
        k_idx = int(rng.integers(spec.k_states))
        det_x[i] = _compose(class_dirs[c], [
            (spec.state_strength, state_dirs[c, k_idx]),
            (spec.noise_sigma, noise()),
        ])

    n_prop = spec.proposals_per_image
    weak_y = _labels(spec.n_classes, spec.weak_per_class)
    weak_areas = np.empty((len(weak_y), n_prop))
    weak_proposals = np.empty((len(weak_y), n_prop, dim))
    for i, c in enumerate(weak_y):
        k_idx = int(rng.integers(spec.k_states))
        scene_idx = int(rng.integers(spec.l_scenes))
        ctx_feat = _compose(class_dirs[c], [
            (spec.state_strength, state_dirs[c, k_idx]),
            (spec.context_strength, scene_dirs[scene_idx]),
            (spec.noise_sigma, noise()),
        ])
        areas = rng.uniform(0.2, 1.0, n_prop)
        ctx_pos = int(rng.integers(n_prop))
        for j in range(n_prop):
            if j == ctx_pos:
                weak_proposals[i, j] = ctx_feat
            else:
                d_scene = int(rng.integers(spec.l_scenes))
                weak_proposals[i, j] = _compose(scene_dirs[d_scene],
                                                [(spec.noise_sigma, noise())])
        areas[ctx_pos] = areas.max() * 1.5
        weak_areas[i] = areas

    test_y = _labels(spec.n_classes, spec.test_per_class)
    test_x = np.empty((len(test_y), dim))
    for i, c in enumerate(test_y):
        k_idx = int(rng.integers(spec.k_states))
        scene_idx = int(rng.integers(spec.l_scenes))
        test_x[i] = _compose(class_dirs[c], [
            (spec.state_strength, state_dirs[c, k_idx]),
            (spec.context_strength, scene_dirs[scene_idx]),
            (spec.noise_sigma, noise()),
        ])

    return ToyWorld(
        spec=spec,
        class_dirs=class_dirs,
        state_dirs=state_dirs,
        scene_dirs=scene_dirs,
        det_x=det_x,
        det_y=det_y,
        weak_areas=weak_areas,
        weak_proposals=weak_proposals,
        weak_y=weak_y,
        test_x=test_x,
        test_y=test_y,
    )


def select_max_size_proposal(areas, proposals) -> np.ndarray:
    """Each image's largest-area proposal feature: (N, P) areas and
    (N, P, D) proposals give (N, D). Ties go to the lowest index."""
    areas = np.asarray(areas, dtype=np.float64)
    proposals = np.asarray(proposals, dtype=np.float64)
    if areas.ndim != 2 or proposals.ndim != 3 or proposals.shape[:2] != areas.shape:
        raise DimensionMismatch(
            f"areas {areas.shape} do not index proposals {proposals.shape}"
        )
    if areas.shape[1] == 0:
        raise EmptyProposals("images have no proposals")
    return proposals[np.arange(len(areas)), areas.argmax(axis=1)]


def build_toy_bank(world: ToyWorld, mode: str = "true-directions", k: int = 5,
                   l: int = 5, strategy=Aggregation.MEAN,
                   enc_noise_sigma: float = 0.15, seed: int = 0,
                   normalize: bool = True,
                   clamp_negative: bool = True) -> PrototypeBank:
    """Bank for the toy vocabulary.

    "true-directions": description embeddings are the world's factor
    directions plus seeded encoder noise (calibration mode; this is what
    the ablation harness measures). k/l beyond the world's true factor
    counts synthesize surplus descriptions from fresh random directions,
    the desk analogue of redundant or noisy LLM output. k=0 builds
    name-only prototypes from the generic embedding alone.

    "toy-text": synthetic description strings run through the
    deterministic hash encoder; exercises the real text pipeline but
    carries no visual structure.
    """
    spec = world.spec
    names = world.class_names
    if mode == "toy-text":
        desc = {}
        for name in names:
            n_states = max(k, 1)
            desc[name] = DescriptionSet(
                class_name=name,
                generic=f"a photo of a {name}",
                states=tuple(f"{name} in state {i:02d}" for i in range(n_states)),
                scenes=tuple(f"{name} + context {i:02d}" for i in range(l)),
            )
        enc = DeterministicToyEncoder(dim=spec.dim, seed=seed)
        return build_bank(desc, enc, strategy=strategy, k=k, l=l,
                          normalize=normalize, clamp_negative=clamp_negative)
    if mode != "true-directions":
        raise ValueError(f"unknown bank mode '{mode}'")

    rng = np.random.default_rng(seed)
    sqrt_dim = math.sqrt(spec.dim)

    def noise() -> np.ndarray:
        return enc_noise_sigma * rng.standard_normal(spec.dim) / sqrt_dim

    sesp_rows = []
    sapp_rows = []
    for c in range(spec.n_classes):
        generic = l2_normalize(world.class_dirs[c] + noise())
        states = []
        for kk in range(k):
            if kk < spec.k_states:
                sdir = world.state_dirs[c, kk]
            else:
                sdir = l2_normalize(rng.standard_normal(spec.dim))
            states.append(l2_normalize(
                world.class_dirs[c] + spec.state_strength * sdir + noise()
            ))
        slots = []
        for ll in range(l):
            if ll < spec.l_scenes:
                gdir = world.scene_dirs[ll]
            else:
                gdir = l2_normalize(rng.standard_normal(spec.dim))
            slots.append(l2_normalize(
                world.class_dirs[c] + spec.context_strength * gdir + noise()
            ))
        proto = generic if k == 0 else aggregate(
            strategy, generic, states, normalize=normalize,
            clamp_negative=clamp_negative,
        )
        sesp_rows.append(proto)
        sapp_rows.append(np.stack(slots))

    return PrototypeBank(
        vocab=names,
        sesp=np.stack(sesp_rows),
        sapp=np.stack(sapp_rows),
        strategy=Aggregation(strategy),
        k=k,
        l=l,
    )


@dataclass(frozen=True)
class ProbeModel:
    """Linear map from world features into the bank's embedding space."""

    weight: np.ndarray  # (dim_in, dim_embed)
    bias: np.ndarray    # (dim_embed,)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise DimensionMismatch(
                f"weight {w.shape} and bias {b.shape} are inconsistent"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise DivergenceDetected("probe parameters are non-finite")

    @classmethod
    def random(cls, dim_in: int, dim_embed: int, seed: int) -> "ProbeModel":
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((dim_in, dim_embed)) / math.sqrt(dim_in)
        return cls(weight=w, bias=np.zeros(dim_embed))

    @classmethod
    def identity(cls, dim: int) -> "ProbeModel":
        return cls(weight=np.eye(dim), bias=np.zeros(dim))

    @classmethod
    def near_identity(cls, dim: int, seed: int, jitter: float = 0.5) -> "ProbeModel":
        """Identity plus seeded Gaussian jitter: the stand-in for a
        pretrained feature extractor that starts roughly aligned."""
        rng = np.random.default_rng(seed)
        w = np.eye(dim) + jitter * rng.standard_normal((dim, dim)) / math.sqrt(dim)
        return cls(weight=w, bias=np.zeros(dim))

    def apply(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weight + self.bias


def train(probe: ProbeModel, world: ToyWorld, bank: PrototypeBank,
          config: TrainConfig) -> tuple[ProbeModel, list[LossReport]]:
    """Full-batch gradient descent on det + weak + lam * scene.

    The weak batch is each weak image's max-size proposal. The scene
    term is skipped (and recorded as 0 with effective lambda 0) when
    disabled or weightless, so flag-off and lam=0 runs produce identical
    traces. Raises DivergenceDetected on non-finite loss.
    """
    x_det, y_det = world.det_x, world.det_y
    x_weak = select_max_size_proposal(world.weak_areas, world.weak_proposals)
    y_weak = world.weak_y

    lam_eff = config.lam if config.use_sapp else 0.0
    w = probe.weight.copy()
    b = probe.bias.copy()
    reports: list[LossReport] = []
    for _ in range(config.steps):
        p_det = x_det @ w + b
        det_val, g_det = det_cls_loss(p_det, y_det, bank, config.temperature)
        p_weak = x_weak @ w + b
        weak_batch = WeakBatch(p_weak, y_weak)
        weak_val, g_weak = weak_cls_loss(weak_batch, bank, config.temperature)
        if lam_eff > 0.0:
            scene_val, g_scene = scene_loss_and_grad(
                weak_batch, bank, config.tau,
                logit_scale=config.logit_scale,
                detach_weights=config.detach_weights,
            )
            g_weak = g_weak + lam_eff * g_scene
        else:
            scene_val = 0.0
        report = total_loss(det_val, weak_val, scene_val, lam_eff)
        if not math.isfinite(report.total):
            raise DivergenceDetected(f"total loss became {report.total}")
        reports.append(report)

        grad_w = x_det.T @ g_det + x_weak.T @ g_weak
        grad_b = g_det.sum(axis=0) + g_weak.sum(axis=0)
        w -= config.lr * grad_w
        b -= config.lr * grad_b
    return ProbeModel(weight=w, bias=b), reports


def evaluate(probe: ProbeModel, bank: PrototypeBank, features: np.ndarray,
             labels: np.ndarray, n_base: int) -> dict:
    """Top-1 accuracy of cosine argmax classification, split by
    base/novel membership (novel = class_id >= n_base)."""
    if len(labels) == 0:
        raise EmptyTestSet("no test samples")
    proj = probe.apply(features)
    fn = np.linalg.norm(proj, axis=1)
    pn = np.linalg.norm(bank.sesp, axis=1)
    cosm = (proj @ bank.sesp.T) / (fn[:, None] * pn[None, :])
    pred = cosm.argmax(axis=1)
    correct = pred == labels
    base_mask = labels < n_base
    novel_mask = ~base_mask

    def _acc(mask) -> float:
        return float(correct[mask].mean()) if mask.any() else float("nan")

    return {
        "acc_novel": _acc(novel_mask),
        "acc_base": _acc(base_mask),
        "acc_all": float(correct.mean()),
    }


ABLATION_GRIDS = {
    "components": (
        {"arm": "baseline", "use_sesp": False, "use_sapp": False},
        {"arm": "+sesp", "use_sesp": True, "use_sapp": False},
        {"arm": "+sapp", "use_sesp": False, "use_sapp": True},
        {"arm": "full", "use_sesp": True, "use_sapp": True},
    ),
    "k": tuple({"arm": f"k={v}", "k": v} for v in (3, 5, 7, 9)),
    "l": tuple({"arm": f"l={v}", "l": v} for v in (3, 5, 7, 9)),
    "tau": tuple({"arm": f"tau={v}", "tau": v} for v in (0.0, 0.1, 0.25, 0.4)),
    "aggregator": tuple(
        {"arm": s.value, "aggregation": s.value} for s in Aggregation
    ),
}


def effective_world(world_spec: WorldSpec, config: TrainConfig) -> WorldSpec:
    """The world a run actually samples: the run seed offsets the world seed."""
    return replace(world_spec, seed=world_spec.seed + config.seed)


def build_run_bank(world: ToyWorld, config: TrainConfig) -> PrototypeBank:
    """The bank a run trains and evaluates against, seeded from its world."""
    return build_toy_bank(
        world,
        mode=config.desc_mode,
        k=config.k if config.use_sesp else 0,
        l=config.l,
        strategy=Aggregation(config.aggregation),
        enc_noise_sigma=config.enc_noise_sigma,
        seed=derive_seed(world.spec.seed, "bank"),
        normalize=config.normalize_prototypes,
        clamp_negative=config.clamp_negative_weights,
    )


def initial_probe(world: ToyWorld, config: TrainConfig) -> ProbeModel:
    """The untrained probe a run starts from, seeded from its world."""
    return ProbeModel.near_identity(world.spec.dim,
                                    derive_seed(world.spec.seed, "probe"),
                                    jitter=config.probe_jitter)


def train_and_evaluate(world_spec: WorldSpec, config: TrainConfig,
                       world: ToyWorld | None = None) -> tuple[dict, ProbeModel]:
    """Run one configuration end to end: its record and its trained probe.

    Generates the run's world unless `world` is given, which must then be
    generate_world(effective_world(world_spec, config)). The record echoes
    the *input* config, so re-running from an echo reproduces the run.
    """
    if world is None:
        world = generate_world(effective_world(world_spec, config))
    bank = build_run_bank(world, config)
    probe, reports = train(initial_probe(world, config), world, bank, config)
    metrics = evaluate(probe, bank, world.test_x, world.test_y, world.spec.n_base)
    totals = [r.total for r in reports]
    record = {
        "kind": "run",
        "config": resolved_config(world_spec, config),
        "metrics": metrics,
        "loss_summary": {
            "initial": totals[0],
            "final": totals[-1],
            "min": min(totals),
            "steps": len(totals),
        },
        "version": __version__,
    }
    return record, probe


def run_single(world_spec: WorldSpec, config: TrainConfig) -> dict:
    """Run one configuration end to end and return its record."""
    return train_and_evaluate(world_spec, config)[0]


def run_ablation(world_spec: WorldSpec, config: TrainConfig, grid,
                 seeds) -> list[dict]:
    """One run per (grid arm, seed) plus per-arm mean/stddev summaries.

    `grid` is a grid name from ABLATION_GRIDS or an explicit sequence of
    override dicts carrying an "arm" label. Each run's world depends only
    on base seed + run seed, so runs are grouped by that world, which is
    generated once per group and dropped before the next group starts.
    Records come out arm-major, in submission order.
    """
    if isinstance(grid, str):
        try:
            arms = ABLATION_GRIDS[grid]
        except KeyError:
            raise ValueError(
                f"unknown grid '{grid}', expected one of {sorted(ABLATION_GRIDS)}"
            ) from None
    else:
        arms = tuple(grid)
    if not arms:
        raise ValueError("ablation grid is empty")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")

    jobs = []
    for arm in arms:
        overrides = {k: v for k, v in arm.items() if k != "arm"}
        cfg_arm = replace(config, **overrides)
        for s in seeds:
            jobs.append((arm.get("arm", "run"), replace(cfg_arm, seed=s)))
    groups: dict[WorldSpec, list[int]] = {}
    for i, (_, cfg_s) in enumerate(jobs):
        groups.setdefault(effective_world(world_spec, cfg_s), []).append(i)

    records: list[dict] = [{}] * len(jobs)
    for spec, indices in groups.items():
        world = generate_world(spec)
        for i in indices:
            name, cfg_s = jobs[i]
            record, _ = train_and_evaluate(world_spec, cfg_s, world)
            record["arm"] = name
            record["seed"] = cfg_s.seed
            records[i] = record
        del world

    out = list(records)
    by_arm: dict[str, list[dict]] = {}
    for rec in records:
        by_arm.setdefault(rec["arm"], []).append(rec)
    for arm in arms:
        name = arm.get("arm", "run")
        runs = by_arm[name]
        means = {}
        stds = {}
        for key in ("acc_novel", "acc_base", "acc_all"):
            vals = np.array([r["metrics"][key] for r in runs])
            means[key] = float(vals.mean())
            stds[key] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        out.append({
            "kind": "summary",
            "arm": name,
            "n_seeds": len(runs),
            "metrics_mean": means,
            "metrics_std": stds,
            "version": __version__,
        })
    return out
