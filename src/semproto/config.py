"""Run configuration: the synthetic-world spec, the training config, the
ablation grids, JSON loading with strict key checking, and the
resolved-config echo.

Every key has a documented default and a provenance tag ("paper" for
defaults taken from the source method, "artifact" for desk-scale
calibration choices). Unknown keys in config files or overrides are
rejected before any work starts. The resolved echo (defaults + file +
overrides, plus the kernel backend and package version) is embedded in
every output record; re-running from an echo reproduces results bitwise.
"""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, InfeasibleWorld

__version__ = "0.5.0"


class Aggregation(str, Enum):
    MEAN = "mean"
    MEDIAN = "median"
    TWO_STAGE = "two_stage"
    SIMILARITY_WEIGHTED = "similarity_weighted"


AGGREGATIONS = tuple(a.value for a in Aggregation)  # plain strings, as grids and echoes hold

# Each ablation grid's arms: a label plus the TrainConfig overrides it runs.
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
    "aggregator": tuple({"arm": a, "aggregation": a} for a in AGGREGATIONS),
}


@dataclass(frozen=True)
class Field:
    default: object
    provenance: str  # "paper" | "artifact"
    help: str


# Provenance and help per config key; each default is written once, on
# its WorldSpec or TrainConfig field.
_FIELD_DOCS: dict[str, tuple[str, str]] = {
    "world.dim": ("artifact", "embedding dimension of the synthetic world"),
    "world.n_classes": ("artifact", "total number of classes"),
    "world.n_base": ("artifact", "classes with box supervision; the rest are novel"),
    "world.k_states": ("artifact", "true per-class state factor directions"),
    "world.l_scenes": ("artifact", "true shared scene-context factor directions"),
    "world.state_strength": ("artifact", "magnitude of the state term in features (calibrated)"),
    "world.context_strength": ("artifact", "magnitude of the scene term in proposals/test (calibrated)"),
    "world.noise_sigma": ("artifact", "isotropic feature noise scale (calibrated)"),
    "world.seed": ("artifact", "root seed for world generation (calibrated default world)"),
    "world.det_per_class": ("artifact", "box-supervised samples per base class"),
    "world.weak_per_class": ("artifact", "weakly labeled images per class"),
    "world.test_per_class": ("artifact", "held-out samples per class"),
    "world.proposals_per_image": ("artifact", "region proposals per weak image"),
    "train.lam": ("paper", "weight of the scene alignment loss in the combined objective"),
    "train.tau": ("artifact", "pseudo-label similarity threshold (value never reported; sweep it)"),
    "train.temperature": ("artifact", "softmax temperature for cosine classification"),
    "train.k": ("paper", "number of state descriptions aggregated per class"),
    "train.l": ("paper", "number of scene phrases (pseudo-prototype slots) per class"),
    "train.aggregation": ("paper", f"prototype aggregation strategy, one of {AGGREGATIONS}"),
    "train.lr": ("artifact", "gradient-descent learning rate"),
    "train.steps": ("artifact", "full-batch gradient-descent steps"),
    "train.seed": ("artifact", "run seed; ablations use seed..seed+n_seeds-1"),
    "train.use_sesp": ("artifact", "state-enhanced prototypes on/off (off = name-only bank)"),
    "train.use_sapp": ("artifact", "scene alignment loss on/off (off = effective lambda 0)"),
}

# Informational keys tolerated (but not applied) when re-loading an echo.
ECHO_ONLY_KEYS = ("backend", "version")


@dataclass(frozen=True)
class WorldSpec:
    """Generative spec of the synthetic recognition world."""

    dim: int = 28
    n_classes: int = 16
    n_base: int = 10
    k_states: int = 5
    l_scenes: int = 5
    state_strength: float = 1.4
    context_strength: float = 1.0
    noise_sigma: float = 0.85
    seed: int = 77
    det_per_class: int = 20
    weak_per_class: int = 10
    test_per_class: int = 300
    proposals_per_image: int = 4

    def __post_init__(self):
        if not 1 <= self.n_base < self.n_classes:
            raise InfeasibleWorld(
                f"need 1 <= n_base < n_classes, got {self.n_base}, {self.n_classes}"
            )
        floor = self.n_classes + self.k_states + self.l_scenes
        if self.dim < floor:
            raise InfeasibleWorld(
                f"dim {self.dim} too small for quasi-orthogonal factors; need >= {floor}"
            )
        if self.k_states < 1:
            raise InfeasibleWorld("k_states must be >= 1")
        if self.l_scenes < 2:
            # scene directions are centered before normalization, and a
            # single direction centers to the zero vector
            raise InfeasibleWorld(f"l_scenes must be >= 2, got {self.l_scenes}")
        if min(self.state_strength, self.context_strength, self.noise_sigma) < 0:
            raise InfeasibleWorld("strengths and noise must be >= 0")
        if self.det_per_class < 0 or self.weak_per_class < 1 or self.test_per_class < 1:
            raise InfeasibleWorld("dataset sizes out of range")
        if self.proposals_per_image < 1:
            raise InfeasibleWorld("proposals_per_image must be >= 1")
        if self.seed < 0:
            raise InfeasibleWorld(
                f"world seed (world.seed + train.seed for a run) must be >= 0, "
                f"got {self.seed}"
            )


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, loss, and bank-construction settings for one run."""

    lam: float = 0.1
    tau: float = 0.25
    temperature: float = 0.2
    k: int = 5
    l: int = 5
    aggregation: str = "mean"
    lr: float = 0.5
    steps: int = 300
    seed: int = 0
    use_sesp: bool = True
    use_sapp: bool = True

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError(f"train.lam must be >= 0, got {self.lam}")
        if not -1.0 <= self.tau <= 1.0:
            raise ConfigError(f"train.tau must lie in [-1, 1], got {self.tau}")
        if self.temperature <= 0:
            raise ConfigError(f"train.temperature must be > 0, got {self.temperature}")
        if self.k < 1 or self.l < 1:
            raise ConfigError("train.k and train.l must be >= 1")
        if self.lr < 0:
            raise ConfigError(f"train.lr must be >= 0, got {self.lr}")
        if self.steps < 1:
            raise ConfigError(f"train.steps must be >= 1, got {self.steps}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(
                f"train.aggregation must be one of {AGGREGATIONS}, got '{self.aggregation}'"
            )


_SECTIONS = {"world": WorldSpec, "train": TrainConfig}

# Every key, in field order, which is the echo and --help order.
CONFIG_SCHEMA: dict[str, Field] = {
    f"{section}.{f.name}": Field(f.default, *_FIELD_DOCS[f"{section}.{f.name}"])
    for section, cls in _SECTIONS.items()
    for f in dataclasses.fields(cls)
}


def _flatten_file(data: dict) -> dict:
    """Accept either nested {"world": {...}, "train": {...}} or flat
    dotted-key form (the shape of a resolved echo)."""
    flat = {}
    for key, value in data.items():
        if key in ECHO_ONLY_KEYS:
            continue
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"section '{key}' must be a map")
            for sub, v in value.items():
                flat[f"{key}.{sub}"] = v
        elif "." in key:
            flat[key] = value
        else:
            raise ConfigError(f"unknown config key '{key}'")
    return flat


def _coerce(key: str, value):
    default = CONFIG_SCHEMA[key].default
    try:
        if isinstance(default, bool):
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                if value.lower() in ("true", "1", "yes"):
                    return True
                if value.lower() in ("false", "0", "no"):
                    return False
            raise ValueError(f"not a boolean: {value!r}")
        if isinstance(default, int):
            # int() of an infinite float raises OverflowError
            if isinstance(value, bool) or (isinstance(value, float) and value != int(value)):
                raise ValueError(f"not an integer: {value!r}")
            return int(value)
        if isinstance(default, float):
            if isinstance(value, bool):  # float(True) is 1.0
                raise ValueError(f"not a number: {value!r}")
            number = float(value)
            if not math.isfinite(number):
                raise ValueError(f"not a finite number: {value!r}")
            return number
        return str(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for '{key}': {exc}") from exc


def parse_override(text: str) -> tuple[str, object]:
    """Parse a 'section.key=value' override string."""
    if "=" not in text:
        raise ConfigError(f"override '{text}' is not of the form key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    raw = raw.strip()
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer of more digits than int() takes
        value = raw
    return key, value


def load_config(path: str | None = None, overrides=()) -> tuple[WorldSpec, TrainConfig]:
    """Resolve defaults + optional config file + overrides into specs.

    Precedence: defaults < file < overrides. Unknown keys error out
    before anything runs.
    """
    flat = {key: f.default for key, f in CONFIG_SCHEMA.items()}
    if path is not None:
        from .atomic import read_json  # --version loads entry, config and errors only

        try:
            data = read_json(path, "config file", ConfigError)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: top level must be a map")
        for key, value in _flatten_file(data).items():
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"unknown config key '{key}'")
            flat[key] = _coerce(key, value)
    for item in overrides:
        key, value = parse_override(item)
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key '{key}'")
        flat[key] = _coerce(key, value)

    world_kwargs = {k.split(".", 1)[1]: v for k, v in flat.items() if k.startswith("world.")}
    train_kwargs = {k.split(".", 1)[1]: v for k, v in flat.items() if k.startswith("train.")}
    return WorldSpec(**world_kwargs), TrainConfig(**train_kwargs)


def resolved_config(world: WorldSpec, train: TrainConfig) -> dict:
    """Flat, JSON-ready echo of every effective setting."""
    out = {}
    for key in CONFIG_SCHEMA:
        section, name = key.split(".", 1)
        src = world if section == "world" else train
        out[key] = getattr(src, name)
    from .backend import active_backend  # numpy: the parser never loads it

    out["backend"] = active_backend()
    out["version"] = __version__
    return out


def derive_seed(root: int, label: str) -> int:
    """Stable sub-seed for a named random stream under one root seed."""
    digest = hashlib.blake2b(f"{root}:{label}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def config_help_epilog() -> str:
    """Help text listing every config key, default, and provenance."""
    lines = [
        "config keys (JSON sections 'world' and 'train'; overridable via --set key=value):"
    ]
    for key, f in CONFIG_SCHEMA.items():
        lines.append(f"  {key:<30} default={f.default!r:<20} [{f.provenance}] {f.help}")
    return "\n".join(lines)
