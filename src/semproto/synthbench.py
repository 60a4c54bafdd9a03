"""Seeded synthetic benchmark: a generative world with class, state,
and scene-context factors, max-size proposal selection, a linear-probe
trainer driven by the alignment losses, and the ablation harness.

Box-supervised features exist only for base classes; weakly labeled
images exist for all classes, and their max-size proposal additionally
carries a scene-context term, which is exactly the visual/textual
mismatch the scene alignment loss targets. Everything is deterministic
per seed. A run trains on a run world (run_world): only the max-size
proposals. A world holds no test split: it streams it in row blocks
(ToyWorld.test_blocks), drawn anew on each pass, and evaluate scores
the blocks as they come.
"""

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .alignment import (
    LossReport,
    det_cls_loss,
    scene_loss_and_grad,
    total_loss,
    weak_cls_loss,
)
from .backend import one_blas_thread, pin_blas_to_one_thread, release_scene_scratch
from .config import ABLATION_GRIDS, TrainConfig, WorldSpec, __version__, derive_seed, resolved_config
from .core import ZERO_NORM_EPS, l2_normalize
from .errors import (
    ConfigError,
    DimensionMismatch,
    DivergenceDetected,
    EmptyProposals,
    EmptyTestSet,
    ZeroNorm,
)
# build_bank stays bound here for perfbench/spans.py, which patches the
# prototypes functions in every module that imports them by name.
from .prototypes import Aggregation, PrototypeBank, assemble_bank, build_bank  # noqa: F401

# Byte budget of one (rows, width) float64 temporary in generate_world's
# composition, a test block's features and evaluate's norms and division:
# the rows they work on stay in cache, and no temporary grows with the
# split.
ROW_BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True)
class ToyWorld:
    """Generated splits plus the ground-truth factor directions.

    Each training split is one feature matrix and one int64 label vector.
    A weak image holds its region proposals, not a pseudo-box: training
    picks one per image with select_max_size_proposal(weak_areas,
    weak_proposals), the only one a run world (run_world) keeps. The test
    split is not held: test_blocks() draws it in row blocks from the
    generator state where the weak split's draws ended (test_stream), the
    same bytes on every pass, and test_y gives its labels.
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
    test_stream: dict            # bit-generator state the test draws start from

    @property
    def class_names(self) -> tuple[str, ...]:
        # zero-padded to one width, so lexicographic order is index order
        width = max(2, len(str(self.spec.n_classes - 1)))
        return tuple(f"class_{i:0{width}d}" for i in range(self.spec.n_classes))

    @property
    def test_y(self) -> np.ndarray:  # (n_test,)
        return _labels(self.spec.n_classes, self.spec.test_per_class)

    def test_blocks(self):
        """Yield the test split's (features, labels) in row order, one
        block of at most ROW_BLOCK_BYTES of features at a time.

        Each row's draws are made in turn from test_stream, as the other
        splits' are, and each block is composed as they are, so every pass
        gives the same bytes and no pass holds an (n_test, dim) array.
        """
        spec, dim = self.spec, self.spec.dim
        rng = np.random.default_rng(spec.seed)
        rng.bit_generator.state = self.test_stream
        integers, normal = rng.integers, rng.standard_normal
        states = self.state_dirs.reshape(-1, dim)
        n_test, step = spec.n_classes * spec.test_per_class, _block_rows(dim)
        for lo in range(0, n_test, step):
            # the labels' slice of test_y, without test_y
            labels = np.arange(lo, min(lo + step, n_test), dtype=np.int64)
            labels //= spec.test_per_class
            features = np.empty((len(labels), dim))
            state = np.empty(len(labels), dtype=np.int64)
            scene = np.empty(len(labels), dtype=np.int64)
            for i in range(len(labels)):
                state[i] = integers(spec.k_states)
                scene[i] = integers(spec.l_scenes)
                normal(out=features[i])
            state += labels * spec.k_states
            _compose_rows(features, (self.class_dirs, labels),
                          [(spec.state_strength, states, state),
                           (spec.context_strength, self.scene_dirs, scene)],
                          spec.noise_sigma)
            yield features, labels


# quoted: evaluated at import, it would load numpy.random into the ablation parent
def _unit_rows(rng: "np.random.Generator", shape) -> np.ndarray:
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


def _block_rows(width: int) -> int:
    """Rows per block whose (rows, width) float64 temporary fits ROW_BLOCK_BYTES."""
    return max(1, ROW_BLOCK_BYTES // (8 * width))


def _compose_rows(out: np.ndarray, base, terms, noise_sigma: float,
                  rows: np.ndarray | None = None) -> None:
    """Overwrite rows of `out` with unit(base + scale * direction ...
    + noise_sigma * noise), summed left to right, in row blocks.

    On entry each selected row of `out` holds its raw standard-normal
    noise draw, divided by sqrt(D) here. `rows` selects the rows of
    `out` (all of them when None). `base` and each term's directions are
    (table, index) gathers: the r-th selected row takes table[index[r]].
    Terms with scale 0 are skipped; if none is left, the rows are the
    bare base directions, unnormalized, so degenerate worlds stay bitwise
    equal to their factor directions. The norm is taken directly rather
    than through l2_normalize's validation: the inputs are the
    generator's own finite arrays.
    """
    terms = [term for term in terms if term[0] != 0.0]
    n = len(out) if rows is None else len(rows)
    step = _block_rows(out.shape[1])
    sqrt_dim = math.sqrt(out.shape[1])
    base_table, base_index = base
    # Each temporary is dropped once added in, so at most two block
    # buffers are alive at a time.
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        sel = block if rows is None else rows[block]
        v = base_table[base_index[block]]
        for scale, table, index in terms:
            t = table[index[block]]
            t *= scale
            v += t
            del t
        if noise_sigma != 0.0:
            z = out[sel]
            z /= sqrt_dim
            z *= noise_sigma
            v += z
            del z
        if terms or noise_sigma != 0.0:
            # a row's vecdot has the bits of its 1-D dot
            norms = np.sqrt(np.vecdot(v, v))
            if np.logical_or.reduce(norms < ZERO_NORM_EPS):
                norm = np.minimum.reduce(norms)
                raise ZeroNorm(f"norm {norm:g} below {ZERO_NORM_EPS:g}")
            np.divide(v, norms[:, None], out=v)
        out[sel] = v
        del v


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

    The draws run in stream order: the factor directions, then the det,
    weak and test splits, each row by row; that order fixes the world's
    bytes. The test split's draws are made on each pass over it (see
    ToyWorld.test_blocks). Each draw is written into an array (the noise
    straight into the row it perturbs), and each split is then composed
    over row blocks of at most ROW_BLOCK_BYTES per temporary.
    """
    rng = np.random.default_rng(spec.seed)
    dim, n_prop = spec.dim, spec.proposals_per_image
    class_dirs = _unit_rows(rng, (spec.n_classes, dim))
    state_dirs = _unit_rows(rng, (spec.n_classes, spec.k_states, dim))
    scene_dirs = _unit_rows(rng, (spec.l_scenes, dim))
    # row c * k_states + k is state_dirs[c, k]
    states = state_dirs.reshape(-1, dim)
    integers, normal = rng.integers, rng.standard_normal

    det_y = _labels(spec.n_base, spec.det_per_class)
    det_x = np.empty((len(det_y), dim))
    det_state = np.empty(len(det_y), dtype=np.int64)
    for i in range(len(det_y)):
        det_state[i] = integers(spec.k_states)
        normal(out=det_x[i])
    det_state += det_y * spec.k_states

    weak_y = _labels(spec.n_classes, spec.weak_per_class)
    n_weak = len(weak_y)
    weak_areas = np.empty((n_weak, n_prop))
    weak_proposals = np.empty((n_weak, n_prop, dim))
    weak_scene = np.empty((n_weak, n_prop), dtype=np.int64)
    ctx_state = np.empty(n_weak, dtype=np.int64)
    ctx_pos = np.empty(n_weak, dtype=np.int64)
    ctx_noise = np.empty(dim)  # the context-rich slot is drawn after its noise
    for i in range(n_weak):
        ctx_state[i] = integers(spec.k_states)
        scene = integers(spec.l_scenes)
        normal(out=ctx_noise)
        weak_areas[i] = rng.uniform(0.2, 1.0, n_prop)
        ctx_pos[i] = pos = integers(n_prop)
        weak_scene[i, pos] = scene
        weak_proposals[i, pos] = ctx_noise
        for j in range(n_prop):
            if j != pos:
                weak_scene[i, j] = integers(spec.l_scenes)
                normal(out=weak_proposals[i, j])
    ctx_state += weak_y * spec.k_states
    # rows of weak_proposals.reshape(-1, dim), in draw order
    ctx_row = np.arange(n_weak) * n_prop + ctx_pos
    d_row = np.flatnonzero(np.arange(n_prop) != ctx_pos[:, None])
    weak_areas.reshape(-1)[ctx_row] = np.maximum.reduce(weak_areas, axis=1) * 1.5

    state, context, sigma = spec.state_strength, spec.context_strength, spec.noise_sigma
    _compose_rows(det_x, (class_dirs, det_y), [(state, states, det_state)], sigma)
    flat_proposals, flat_scene = weak_proposals.reshape(-1, dim), weak_scene.reshape(-1)
    _compose_rows(flat_proposals, (class_dirs, weak_y),
                  [(state, states, ctx_state), (context, scene_dirs, flat_scene[ctx_row])],
                  sigma, rows=ctx_row)
    _compose_rows(flat_proposals, (scene_dirs, flat_scene[d_row]), [], sigma, rows=d_row)

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
        test_stream=rng.bit_generator.state,
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
    if areas.shape[1] == 1:
        return proposals[:, 0]  # a view: a run world's pseudo-boxes are not copied
    return proposals[np.arange(len(areas)), areas.argmax(axis=1)]


def run_world(spec: WorldSpec) -> ToyWorld:
    """generate_world(spec) with each weak image cut to its max-size proposal:
    (N, 1) areas and read-only (N, 1, D) proposals. A run on it has the
    same bits."""
    world = generate_world(spec)
    pseudo = select_max_size_proposal(world.weak_areas, world.weak_proposals)
    pseudo.flags.writeable = False
    areas = world.weak_areas.max(axis=1, keepdims=True)
    return dataclasses.replace(world, weak_areas=areas, weak_proposals=pseudo[:, None])


def build_toy_bank(world: ToyWorld, k: int = 5, l: int = 5,
                   strategy=Aggregation.MEAN, enc_noise_sigma: float = 0.15,
                   seed: int = 0) -> PrototypeBank:
    """Bank for the toy vocabulary.

    Description embeddings are the world's factor directions plus seeded
    encoder noise (the calibration the ablation harness measures). k/l
    beyond the world's true factor counts synthesize surplus descriptions
    from fresh random directions, the desk analogue of redundant or noisy
    LLM output. k=0 builds name-only prototypes from the generic
    embedding alone.
    """
    spec = world.spec
    rng = np.random.default_rng(seed)
    sqrt_dim = math.sqrt(spec.dim)

    def noise() -> np.ndarray:
        return enc_noise_sigma * rng.standard_normal(spec.dim) / sqrt_dim

    def embeddings(c: int, dirs: np.ndarray, n: int, strength: float) -> list:
        """n description embeddings of class c, each offset by strength
        times a factor direction: the world's first, then fresh ones."""
        out = []
        for i in range(n):
            d = dirs[i] if i < len(dirs) else l2_normalize(rng.standard_normal(spec.dim))
            out.append(l2_normalize(world.class_dirs[c] + strength * d + noise()))
        return out

    # a generator: each class's draws are made in turn, generic first
    classes = ((l2_normalize(world.class_dirs[c] + noise()),
                embeddings(c, world.state_dirs[c], k, spec.state_strength),
                embeddings(c, world.scene_dirs, l, spec.context_strength))
               for c in range(spec.n_classes))
    return assemble_bank(world.class_names, classes, strategy, k, l)


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
    def near_identity(cls, dim: int, seed: int, jitter: float = 0.5) -> "ProbeModel":
        """Identity plus seeded Gaussian jitter: the stand-in for a
        pretrained feature extractor that starts roughly aligned."""
        rng = np.random.default_rng(seed)
        w = np.eye(dim) + jitter * rng.standard_normal((dim, dim)) / math.sqrt(dim)
        return cls(weight=w, bias=np.zeros(dim))

    def apply(self, features: np.ndarray) -> np.ndarray:
        """features @ weight + bias, with the bias added in place: the
        bits of that expression without its second (N, dim_embed) array."""
        proj = features @ self.weight
        proj += self.bias
        return proj


def train(probe: ProbeModel, world: ToyWorld, bank: PrototypeBank,
          config: TrainConfig) -> tuple[ProbeModel, list[LossReport]]:
    """Full-batch gradient descent on det + weak + lam * scene.

    The weak batch is each weak image's max-size proposal, read from a
    run world as a view; the losses take its projections and the
    image-level labels as two arrays, p_weak and y_weak. The scene term is
    skipped (and recorded as 0 with effective lambda 0) when disabled or
    weightless, so flag-off and lam=0 runs produce identical traces.
    Raises DivergenceDetected on non-finite loss. A step takes the det
    term's share of the parameter gradients, then runs the weak term and
    then the scene one. One term's gradient is held while the other runs
    in either order; in this one it is held under the scene kernel, whose
    arrays beside its kept buffers peak lower than the weak CE's (1.1
    against 1.8 MB at the train-large shape). It adds the bias and lam *
    the scene gradient in place, with the bits of the out-of-place sums.
    Every product runs on one BLAS thread (backend.one_blas_thread), so
    the probe does not depend on the caller's OpenBLAS thread count, and
    no second thread faults in its packing buffers for them; the
    caller's count is restored on return or raise. The scene kernel's
    per-thread buffers are released on the way out, so what runs next
    does not peak on top of them.
    """
    x_det, y_det = world.det_x, world.det_y
    x_weak = select_max_size_proposal(world.weak_areas, world.weak_proposals)
    y_weak = world.weak_y

    lam_eff = config.lam if config.use_sapp else 0.0
    w = probe.weight.copy()
    b = probe.bias.copy()
    reports: list[LossReport] = []
    try:
        with one_blas_thread():
            for _ in range(config.steps):
                p_det = x_det @ w
                p_det += b
                det_val, g_det = det_cls_loss(p_det, y_det, bank, config.temperature)
                grad_w = x_det.T @ g_det
                # ndarray.sum(axis=0)'s reduction, without its Python wrapper
                grad_b = np.add.reduce(g_det, axis=0)
                del p_det, g_det  # so the weak and scene terms do not peak on them
                p_weak = x_weak @ w
                p_weak += b
                weak_val, g_weak = weak_cls_loss(p_weak, y_weak, bank, config.temperature)
                scene_val = 0.0
                if lam_eff > 0.0:
                    scene_val, g_scene = scene_loss_and_grad(p_weak, y_weak, bank, config.tau)
                    g_scene *= lam_eff
                    g_weak += g_scene
                    del g_scene  # not under the next step's weak term
                report = total_loss(det_val, weak_val, scene_val, lam_eff)
                if not math.isfinite(report.total):
                    raise DivergenceDetected(f"total loss became {report.total}")
                reports.append(report)

                grad_w += x_weak.T @ g_weak
                grad_b += np.add.reduce(g_weak, axis=0)
                del p_weak, g_weak  # not alive in the next step
                w -= config.lr * grad_w
                b -= config.lr * grad_b
    finally:
        release_scene_scratch()
    return ProbeModel(weight=w, bias=b), reports


def _row_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=1) with its bits, computed in row blocks."""
    norms = np.empty(len(a))
    step = _block_rows(a.shape[1])
    for lo in range(0, len(a), step):
        blk = a[lo:lo + step]
        np.sqrt(np.add.reduce(blk * blk, axis=1), out=norms[lo:lo + step])
    return norms


def _cosines(probe: ProbeModel, bank: PrototypeBank,
             features: np.ndarray) -> np.ndarray:
    """(N, C) cosines of the projected features with the bank's sesp rows,
    with the bits of the whole-array (proj @ sesp.T) / (|proj| |sesp|):
    both products stay whole, and the row norms and the division run in
    blocks of at most ROW_BLOCK_BYTES per temporary. Both products run on
    one BLAS thread (see evaluate)."""
    with one_blas_thread():
        proj = probe.apply(features)
        fn = _row_norms(proj)
        pn = _row_norms(bank.sesp)
        cosm = proj @ bank.sesp.T
    del proj  # the division's block temporaries would stack on it
    step = _block_rows(cosm.shape[1])
    for lo in range(0, len(cosm), step):
        blk = cosm[lo:lo + step]
        np.divide(blk, fn[lo:lo + step, None] * pn[None, :], out=blk)
    return cosm


def evaluate(scorers, blocks, n_base: int) -> list[dict]:
    """Top-1 accuracy of cosine argmax classification for each (probe,
    bank) in `scorers`, split by base/novel membership (novel = class_id
    >= n_base), in one pass over `blocks` of (features, labels).

    Each block is scored by every scorer and then dropped; an accuracy is
    hits / count, the bits of the mean of a boolean array (nan for a side
    with no sample). A block's cosines are _cosines'. Its projection
    proj = features @ W may round differently from the whole split's, so
    a streamed split (ToyWorld.test_blocks) is scored by its blocks'
    cosines. Both products run on one BLAS thread
    (backend.one_blas_thread), so the scores do not depend on the
    caller's OpenBLAS thread count, and no second thread faults in its
    packing buffers for them.
    """
    # (all, novel) samples, and per scorer (all, novel) hits
    counts = np.zeros(2, dtype=np.int64)
    hits = np.zeros((len(scorers), 2), dtype=np.int64)
    for features, labels in blocks:
        novel = labels >= n_base
        counts += (len(labels), np.count_nonzero(novel))
        for run_hits, (probe, bank) in zip(hits, scorers):
            correct = _cosines(probe, bank, features).argmax(axis=1) == labels
            run_hits += (np.count_nonzero(correct), np.count_nonzero(correct & novel))
    n_all, n_novel = counts.tolist()
    if n_all == 0:
        raise EmptyTestSet("no test samples")

    def _acc(n_hits: int, n: int) -> float:
        return n_hits / n if n else float("nan")

    return [{
        "acc_novel": _acc(novel_hits, n_novel),
        "acc_base": _acc(all_hits - novel_hits, n_all - n_novel),
        "acc_all": all_hits / n_all,
    } for all_hits, novel_hits in hits.tolist()]


def effective_world(world_spec: WorldSpec, config: TrainConfig) -> WorldSpec:
    """The world a run actually samples: the run seed offsets the world seed."""
    return dataclasses.replace(world_spec, seed=world_spec.seed + config.seed)


def build_run_bank(world: ToyWorld, config: TrainConfig) -> PrototypeBank:
    """The bank a run trains and evaluates against, seeded from its world."""
    return build_toy_bank(
        world,
        k=config.k if config.use_sesp else 0,
        l=config.l,
        strategy=Aggregation(config.aggregation),
        seed=derive_seed(world.spec.seed, "bank"),
    )


def initial_probe(world: ToyWorld) -> ProbeModel:
    """The untrained probe a run starts from, seeded from its world."""
    return ProbeModel.near_identity(world.spec.dim,
                                    derive_seed(world.spec.seed, "probe"))


def train_and_evaluate(world_spec: WorldSpec, configs,
                       world: ToyWorld | None = None) -> list[tuple[dict, ProbeModel]]:
    """Run configurations that share one run seed end to end: each one's
    record and trained probe, in order.

    Builds run_world(effective_world(world_spec, config)) unless `world`
    is given: that, or the generate_world of that spec, gives the same
    records. Each configuration trains on it in turn; then every trained
    probe is scored in one pass over the world's test blocks, which are
    drawn after training, so no run holds the test split at training's
    peak. A run's record is the one it gets run alone. Each record echoes
    its *input* config, so re-running from an echo reproduces the run.
    """
    seeds = sorted({cfg.seed for cfg in configs})
    if len(seeds) != 1:
        raise ConfigError(f"one pass needs configs of one run seed, got seeds {seeds}")
    if world is None:
        world = run_world(effective_world(world_spec, configs[0]))
    runs = []
    for config in configs:
        bank = build_run_bank(world, config)
        probe, reports = train(initial_probe(world), world, bank, config)
        runs.append((probe, bank, [r.total for r in reports]))
    metrics = evaluate([(probe, bank) for probe, bank, _ in runs],
                       world.test_blocks(), world.spec.n_base)
    out = []
    for config, (probe, _, totals), run_metrics in zip(configs, runs, metrics):
        record = {
            "kind": "run",
            "config": resolved_config(world_spec, config),
            "metrics": run_metrics,
            "loss_summary": {
                "initial": totals[0],
                "final": totals[-1],
                "min": min(totals),
                "steps": len(totals),
            },
            "version": __version__,
        }
        out.append((record, probe))
    return out


def _split_groups(groups: dict[WorldSpec, list[int]],
                  n_workers: int) -> list[tuple[WorldSpec, list[int]]]:
    """(world spec, job indices) chunks that share the groups evenly
    among n_workers.

    With r = len(groups) % n_workers, the first len(groups) - r groups
    go out whole. Each of the r leftover groups is split by arm,
    round-robin, into at most n_workers chunks, and the worker of each
    chunk generates that world itself: a leftover world is generated up
    to n_workers times so that no worker idles while another runs a
    whole last group.
    """
    items = list(groups.items())
    n_whole = len(items) - len(items) % n_workers
    chunks = items[:n_whole]
    for spec, indices in items[n_whole:]:
        n_parts = min(n_workers, len(indices))
        chunks.extend((spec, indices[part::n_parts]) for part in range(n_parts))
    return chunks


def _run_group(world_spec: WorldSpec, spec: WorldSpec, jobs) -> list[dict]:
    """Build one run world and run its (arm name, config) jobs on it in one
    train_and_evaluate: its test split is drawn once per chunk, not per
    arm."""
    runs = train_and_evaluate(world_spec, [cfg_s for _, cfg_s in jobs], run_world(spec))
    records = []
    for (name, cfg_s), (record, _) in zip(jobs, runs):
        record["arm"] = name
        record["seed"] = cfg_s.seed
        records.append(record)
    return records


def run_ablation(world_spec: WorldSpec, config: TrainConfig, grid: str,
                 seeds) -> list[dict]:
    """One run per (grid arm, seed) plus per-arm mean/stddev summaries.

    `grid` names one of config.ABLATION_GRIDS; each of its arms is a label
    plus the TrainConfig overrides it runs. Each run's world depends only
    on base seed + run seed, so runs are grouped by that world. The groups
    run on a pool of forked worker processes, one per CPU this process
    may use (at most one per run); a worker builds its group's run world
    once and runs the group's arms on it. The groups that do not divide
    evenly among the workers, a lone group included, are split by arm
    (see _split_groups). Records come out arm-major, in submission order,
    whatever the worker count.
    An exception raised in a worker is raised here; a worker that dies
    raises BrokenProcessPool.
    """
    # Imported here: the pool modules would add to every CLI start.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        arms = ABLATION_GRIDS[grid]
    except KeyError:
        raise ConfigError(
            f"unknown grid '{grid}', expected one of {sorted(ABLATION_GRIDS)}"
        ) from None
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("need at least one seed")

    jobs = []
    for arm in arms:
        overrides = {k: v for k, v in arm.items() if k != "arm"}
        cfg_arm = dataclasses.replace(config, **overrides)
        for s in seeds:
            jobs.append((arm["arm"], dataclasses.replace(cfg_arm, seed=s)))
    groups: dict[WorldSpec, list[int]] = {}
    for i, (_, cfg_s) in enumerate(jobs):
        groups.setdefault(effective_world(world_spec, cfg_s), []).append(i)

    # Workers get specs and configs, never worlds: each worker generates
    # its own, so nothing world-sized is pickled. fork lets workers inherit
    # the loaded package instead of importing it again; the package starts
    # no threads of its own, and OpenBLAS rebuilds its thread pool after a
    # fork.
    n_workers = min(len(os.sched_getaffinity(0)), len(jobs))
    pool = ProcessPoolExecutor(max_workers=n_workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=pin_blas_to_one_thread)
    chunks = _split_groups(groups, n_workers)
    records: list[dict] = [{}] * len(jobs)
    try:
        results = pool.map(_run_group, [world_spec] * len(chunks),
                           [spec for spec, _ in chunks],
                           [[jobs[i] for i in indices] for _, indices in chunks])
        for (_, indices), chunk_records in zip(chunks, results):
            for i, record in zip(indices, chunk_records):
                records[i] = record
    finally:
        # After a failed chunk, the chunks not yet started are dropped.
        pool.shutdown(cancel_futures=True)

    out = list(records)
    by_arm: dict[str, list[dict]] = {}
    for rec in records:
        by_arm.setdefault(rec["arm"], []).append(rec)
    for arm in arms:
        name = arm["arm"]
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
