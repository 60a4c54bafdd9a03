"""Prototype construction: per-class aggregated vectors plus the
per-class scene slot bank, with JSON persistence.

Four aggregation strategies are supported; mean is the default. Every
aggregator returns an l2-normalized vector; similarity weighting clamps
negative weights to 0, so its weights sum to at least 1 and no aggregate
fails for want of weight.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .atomic import atomic_write, read_json
from .config import Aggregation
from .core import as_embedding, cosine, l2_normalize, unit_rows
# encode stays bound here for perfbench/spans.py, which patches every import of it
from .descriptions import DescriptionSet, encode, encode_texts  # noqa: F401
from .errors import ConfigError, DimensionMismatch, EmptyStateList, MalformedResponse


def _stack(generic, states) -> tuple[np.ndarray, np.ndarray]:
    g = as_embedding(generic)
    if len(states) == 0:
        raise EmptyStateList("at least one state embedding is required")
    rows = [as_embedding(s, dim=g.shape[0]) for s in states]
    return g, np.stack(rows)


def aggregate_mean(generic, states) -> np.ndarray:
    """Arithmetic mean of the generic and all K state embeddings."""
    g, st = _stack(generic, states)
    return l2_normalize((g + st.sum(axis=0)) / (st.shape[0] + 1))


def aggregate_median(generic, states) -> np.ndarray:
    """Element-wise median across the K+1 embeddings.

    Even counts take the mean of the two middle values per coordinate;
    a median vector that degenerates to zero raises ZeroNorm.
    """
    g, st = _stack(generic, states)
    return l2_normalize(np.median(np.vstack([g[None, :], st]), axis=0))


def aggregate_two_stage(generic, states) -> np.ndarray:
    """Average the K state embeddings first, then average with the
    generic embedding (equal weight to the two stages)."""
    g, st = _stack(generic, states)
    return l2_normalize((g + st.mean(axis=0)) / 2.0)


def aggregate_similarity_weighted(generic, states) -> np.ndarray:
    """Weighted average with each embedding weighted proportionally to
    its cosine similarity with the generic embedding.

    The generic embedding participates with weight proportional to 1.
    Negative weights are clamped to 0 (a negative weight would flip a
    vector's direction), so the weights sum to at least 1 and no
    aggregate fails for want of weight.
    """
    g, st = _stack(generic, states)
    weights = np.maximum(np.array([1.0] + [cosine(s, g) for s in st]), 0.0)
    weights = weights / float(weights.sum())
    stacked = np.vstack([g[None, :], st])
    return l2_normalize(weights @ stacked)


_AGGREGATORS = {
    Aggregation.MEAN: aggregate_mean,
    Aggregation.MEDIAN: aggregate_median,
    Aggregation.TWO_STAGE: aggregate_two_stage,
    Aggregation.SIMILARITY_WEIGHTED: aggregate_similarity_weighted,
}


def aggregate(strategy, generic, states) -> np.ndarray:
    return _AGGREGATORS[Aggregation(strategy)](generic, states)


def _read_only_unit_rows(protos: np.ndarray) -> np.ndarray:
    unit, _ = unit_rows(protos)
    unit.flags.writeable = False
    return unit


@dataclass(frozen=True)
class PrototypeBank:
    """Per-class prototypes (C x dim) plus scene slot vectors (C x L x dim).

    Vocabulary order is lexicographic over distinct class names (a bank
    out of that order raises MalformedResponse); a class's row in sesp and
    sapp, and its label in the loss kernels, is its position in that
    order. Banks are immutable and safe to share: the arrays are
    read-only copies, so the unit-row views the loss kernels use
    (unit_sesp, unit_sapp) are computed once and never go stale.
    """

    vocab: tuple[str, ...]
    sesp: np.ndarray
    sapp: np.ndarray
    strategy: Aggregation
    k: int
    l: int

    def __post_init__(self):
        sesp = np.array(self.sesp, dtype=np.float64)
        sapp = np.array(self.sapp, dtype=np.float64)
        sesp.flags.writeable = False
        sapp.flags.writeable = False
        vocab = tuple(self.vocab)
        if not (all(isinstance(n, str) for n in vocab)
                and all(a < b for a, b in zip(vocab, vocab[1:]))):
            raise MalformedResponse("vocab must hold distinct names in lexicographic "
                                    f"order, got {vocab!r}")
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "sesp", sesp)
        object.__setattr__(self, "sapp", sapp)
        c = len(self.vocab)
        if sesp.ndim != 2 or sesp.shape[0] != c:
            raise DimensionMismatch(f"sesp must be ({c}, dim), got {sesp.shape}")
        if sapp.ndim != 3 or sapp.shape[0] != c or sapp.shape[1] != self.l:
            raise DimensionMismatch(
                f"sapp must be ({c}, {self.l}, dim), got {sapp.shape}"
            )
        if sapp.shape[2] != sesp.shape[1]:
            raise DimensionMismatch("sesp and sapp dims differ")
        if not (np.all(np.isfinite(sesp)) and np.all(np.isfinite(sapp))):
            raise MalformedResponse("bank contains NaN or infinity")

    @property
    def dim(self) -> int:
        return int(self.sesp.shape[1])

    @cached_property
    def unit_sesp(self) -> np.ndarray:
        """sesp with every row scaled to unit norm (read-only, computed once)."""
        return _read_only_unit_rows(self.sesp)

    @cached_property
    def unit_sapp(self) -> np.ndarray:
        """sapp with every slot vector scaled to unit norm (read-only,
        computed once)."""
        return _read_only_unit_rows(self.sapp)

    @property
    def n_classes(self) -> int:
        return len(self.vocab)

    def save(self, path: str) -> None:
        payload = {
            "dim": self.dim,
            "vocab": list(self.vocab),
            "strategy": self.strategy.value,
            "k": self.k,
            "l": self.l,
            "sesp": self.sesp.tolist(),
            "sapp": self.sapp.tolist(),
        }
        atomic_write(path, (json.dumps(payload) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "PrototypeBank":
        """Read a bank file written by save(), through atomic.read_json. A
        missing file raises FileNotFoundError; content that is not strict
        UTF-8 JSON (a repeated key or a lone surrogate included) or not a
        bank raises MalformedResponse naming the file, as do arrays whose
        shapes disagree with the vocab, l or each other, a NaN or infinity,
        and a vocab out of lexicographic order, whose rows would not match
        the labels build_bank gives the same names."""
        payload = read_json(path, "bank file", MalformedResponse)
        try:
            if not isinstance(payload, dict):
                raise TypeError("top level is not a JSON object")
            dim, vocab, k, l = payload["dim"], payload["vocab"], payload["k"], payload["l"]
            for name, value in (("dim", dim), ("k", k), ("l", l)):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise TypeError(f"{name} must be an integer, got {value!r}")
            if k < 0:
                raise ValueError(f"k must be >= 0, got {k}")
            if l < 1:
                raise ValueError(f"l must be >= 1, got {l}")
            if not isinstance(vocab, list):
                raise TypeError(f"vocab must be a list, got {vocab!r}")
            bank = cls(
                vocab=vocab,
                sesp=np.array(payload["sesp"], dtype=np.float64),
                sapp=np.array(payload["sapp"], dtype=np.float64),
                strategy=Aggregation(payload["strategy"]),
                k=k,
                l=l,
            )
        except (KeyError, ValueError, TypeError, DimensionMismatch,
                MalformedResponse) as exc:
            raise MalformedResponse(f"bank file {path} is malformed: {exc}") from exc
        if bank.dim != dim:
            raise DimensionMismatch(f"bank file {path}: declared dim disagrees with arrays")
        return bank


def build_bank(desc: dict, encoder, strategy=Aggregation.MEAN, k: int = 5,
               l: int = 5) -> PrototypeBank:
    """Encode descriptions and aggregate them into a PrototypeBank.

    Uses the first k states and first l scenes of each DescriptionSet
    (k=0 builds name-only prototypes from the generic embedding alone).
    Vocabulary is sorted lexicographically, so the result is independent
    of the input map's ordering.
    """
    strategy = Aggregation(strategy)
    if l < 1:
        raise ConfigError(f"l must be >= 1, got {l}")
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    vocab = tuple(sorted(desc))
    if not vocab:
        raise ConfigError("no classes to build a bank from")
    for name in vocab:
        ds: DescriptionSet = desc[name]
        if ds.k < k:
            raise EmptyStateList(f"class '{name}' has {ds.k} states, need {k}")
        if ds.l < l:
            raise MalformedResponse(f"class '{name}' has {ds.l} scenes, need {l}")
    vectors = encode_texts([text for name in vocab for text in (
        desc[name].generic, *desc[name].states[:k], *desc[name].scenes[:l])], encoder)
    classes = ((vectors[ds.generic], [vectors[t] for t in ds.states[:k]],
                [vectors[t] for t in ds.scenes[:l]]) for ds in map(desc.get, vocab))
    return assemble_bank(vocab, classes, strategy, k, l)


def assemble_bank(vocab, classes, strategy, k: int, l: int) -> PrototypeBank:
    """The bank of `vocab` from each class's (generic, states, slots)
    embeddings, given in vocabulary order.

    A class's prototype aggregates its generic and state embeddings
    (see aggregate); k=0 builds name-only prototypes from the generic
    embedding alone, as it stands. Its slots stack into its sapp rows.
    """
    strategy = Aggregation(strategy)
    sesp_rows = []
    sapp_rows = []
    for generic, states, slots in classes:
        sesp_rows.append(generic if k == 0 else aggregate(strategy, generic, states))
        sapp_rows.append(np.stack(slots))
    return PrototypeBank(
        vocab=vocab,
        sesp=np.stack(sesp_rows),
        sapp=np.stack(sapp_rows),
        strategy=strategy,
        k=k,
        l=l,
    )
