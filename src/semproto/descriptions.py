"""Textual class descriptions: prompt rendering, the description file,
and the text encoders.

Three prompt families exist per class: a generic appearance description,
K state-specific descriptions, and L scene phrases of the form
"<class> + context". The package reaches no service: descriptions come
from a description file (`generate_descriptions` selects from one,
`read_description_file` loads all of one), and embeddings from the
deterministic toy hash encoder or an embedding fixture (`FixtureEncoder`),
both read by `atomic.read_json`. Descriptions and embeddings made
elsewhere, say by an LLM answering the `render_*_prompt` prompts and by
any text encoder, come in as files in the `write_description_file` and
`write_embedding_fixture` formats.

Prompts and description files need no numpy: the encoders load it, and
the vector checks in `core`, on first use, so `semproto gen-descriptions`
never imports it.
"""

import hashlib
import json
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .atomic import atomic_write, read_json
from .errors import (
    ClientUnavailable,
    ConfigError,
    DimensionMismatch,
    EmptyClassName,
    EncoderUnavailable,
    InsufficientDescriptions,
    InvalidEmbedding,
    MalformedResponse,
)

if TYPE_CHECKING:
    import numpy as np

STATE_PROMPT_TEMPLATE = (
    "What are the common states or forms of {name} (category name)? "
    "For each common state of {name}, provide a one-sentence description "
    "of its visual appearance."
)

GENERIC_PROMPT_TEMPLATE = (
    "What does {name} (category name) generally look like? "
    "Provide a one-sentence generic description of its appearance."
)

SCENE_PROMPT_TEMPLATE = (
    "In which contexts is {name} most commonly found? "
    "Please output phrases in the form of '{name} + context'."
)


def _require_name(class_name: str) -> str:
    if not isinstance(class_name, str) or not class_name.strip():
        raise EmptyClassName("class name must be a nonempty string")
    return class_name


def render_state_prompt(class_name: str) -> str:
    """Prompt asking for the common states of a class and their looks."""
    return STATE_PROMPT_TEMPLATE.format(name=_require_name(class_name))


def render_generic_prompt(class_name: str) -> str:
    """Prompt asking for a one-sentence generic appearance description."""
    return GENERIC_PROMPT_TEMPLATE.format(name=_require_name(class_name))


def render_scene_prompt(class_name: str) -> str:
    """Prompt asking for '<class> + context' scene phrases."""
    return SCENE_PROMPT_TEMPLATE.format(name=_require_name(class_name))


@dataclass(frozen=True)
class DescriptionSet:
    """Per-class description bundle: one generic sentence, K state
    descriptions, L scene phrases.

    Invariants enforced on construction: all strings nonempty after
    trimming, no duplicate states or scenes, and every state/scene
    mentions the class name (case-insensitive substring).
    """

    class_name: str
    generic: str
    states: tuple[str, ...]
    scenes: tuple[str, ...]

    def __post_init__(self):
        _require_name(self.class_name)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "scenes", tuple(self.scenes))
        if not self.generic.strip():
            raise MalformedResponse(f"class '{self.class_name}': empty generic description")
        if len(self.states) < 1 or len(self.scenes) < 1:
            raise MalformedResponse(f"class '{self.class_name}': needs >= 1 state and scene")
        lowered = self.class_name.lower()
        for kind, items in (("state", self.states), ("scene", self.scenes)):
            if len(set(items)) != len(items):
                raise MalformedResponse(f"class '{self.class_name}': duplicate {kind} strings")
            for text in items:
                if not text.strip():
                    raise MalformedResponse(f"class '{self.class_name}': empty {kind} string")
                if lowered not in text.lower():
                    raise MalformedResponse(
                        f"class '{self.class_name}': {kind} does not mention the class: {text!r}"
                    )

    @property
    def k(self) -> int:
        return len(self.states)

    @property
    def l(self) -> int:
        return len(self.scenes)

    def all_texts(self) -> list[str]:
        return [self.generic, *self.states, *self.scenes]


def _check_record(where: str, rec) -> None:
    """Raise MalformedResponse naming `where` unless `rec` is a
    {"generic": str, "states": [str], "scenes": [str]} map."""
    if not isinstance(rec, dict):
        raise MalformedResponse(f"{where}: record must be a map")
    for key in ("generic", "states", "scenes"):
        if key not in rec:
            raise MalformedResponse(f"{where}: record missing '{key}'")
        if key == "generic":
            if not isinstance(rec[key], str):
                raise MalformedResponse(f"{where}: 'generic' must be a string")
        elif not (isinstance(rec[key], list) and all(isinstance(t, str) for t in rec[key])):
            raise MalformedResponse(f"{where}: '{key}' must be a list of strings")


def _read_records(path: str) -> dict:
    """The description file at `path` (the write_description_file format:
    a map class_name -> {"generic": str, "states": [str], "scenes": [str]},
    no blank class name) as that map. An unreadable file raises
    ClientUnavailable."""
    try:
        data = read_json(path, "description file", MalformedResponse)
    except OSError as exc:
        raise ClientUnavailable(f"cannot read description file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedResponse(f"description file {path}: top level must be a map")
    for name, rec in data.items():
        if not name.strip():
            raise MalformedResponse(f"description file {path}: blank class name {name!r}")
        _check_record(f"description file {path}, class '{name}'", rec)
    return data


def read_description_file(path: str) -> dict:
    """Load a description file into {class_name: DescriptionSet}."""
    return {name: DescriptionSet(name, rec["generic"], tuple(rec["states"]),
                                 tuple(rec["scenes"]))
            for name, rec in _read_records(path).items()}


def write_description_file(path: str, sets: dict) -> None:
    """Write {class_name: DescriptionSet} as a description file."""
    payload = {
        name: {"generic": ds.generic, "states": list(ds.states),
               "scenes": list(ds.scenes)}
        for name, ds in sets.items()
    }
    atomic_write(path, (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))


def _build_set(class_name: str, rec: dict, k: int, l: int) -> DescriptionSet:
    states = [s.strip() for s in rec["states"]]
    scenes = [s.strip() for s in rec["scenes"]]
    for kind, texts, wanted in (("states", states, k), ("scenes", scenes, l)):
        if len(texts) < wanted:
            raise InsufficientDescriptions(class_name, len(texts), wanted, kind=kind)
    # Over-production is truncated in file order; under-production errors
    # above rather than being padded.
    return DescriptionSet(class_name, rec["generic"].strip(), tuple(states[:k]),
                          tuple(scenes[:l]))


def generate_descriptions(class_names, k: int, l: int, path: str) -> dict:
    """Exactly k states and l scenes per class from the description file
    at `path`, read once.

    The result holds the distinct class names in sorted order; a class
    the file has no record for raises ClientUnavailable.
    """
    if k < 1 or l < 1:
        raise ConfigError(f"k and l must be >= 1, got k={k}, l={l}")
    names = sorted({_require_name(n) for n in class_names})
    records = _read_records(path)
    for name in names:
        if name not in records:
            raise ClientUnavailable(
                f"description file {path} has no descriptions for class '{name}'")
    return {name: _build_set(name, records[name], k, l) for name in names}


def _json_vector(values, dim: int | None = None) -> "np.ndarray":
    """A vector read from JSON as a checked embedding (core.as_embedding).
    It must be a list of JSON numbers: numpy alone would also read true
    and "1" as 1.0."""
    from .core import as_embedding

    if not (isinstance(values, list) and all(type(x) in (int, float) for x in values)):
        raise InvalidEmbedding("embedding is not a list of numbers")
    return as_embedding(values, dim=dim)


class DeterministicToyEncoder:
    """Seeded hash-of-text encoder producing unit vectors.

    The text is digested (blake2b) into a PRNG seed; the embedding is a
    normalized standard-normal draw. Identical (text, dim, seed) inputs
    give bitwise-identical vectors across processes and platforms.
    """

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.seed = int(seed)

    def encode(self, text: str) -> "np.ndarray":
        import numpy as np

        from .core import l2_normalize

        digest = hashlib.blake2b(
            f"{self.seed}:{text}".encode("utf-8"), digest_size=8
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        return l2_normalize(rng.standard_normal(self.dim))


class FixtureEncoder:
    """Looks up pre-computed embeddings from a JSON fixture.

    File format (written by write_embedding_fixture):
    {"dim": int, "records": [{"text": str, "vector": [float]}]}.
    Vectors are stored pre-normalized; the loader re-normalizes and warns
    if any stored norm drifts from 1 by more than 1e-6. A stored norm below
    1e-6, the floor `encode` puts on an encoder's raw output, is malformed,
    and so is a second record for one text.
    """

    def __init__(self, path: str):
        import numpy as np

        from .core import l2_normalize

        self.path = path
        try:
            data = read_json(path, "embedding fixture", MalformedResponse)
        except OSError as exc:
            raise EncoderUnavailable(f"cannot read embedding fixture {path}: {exc}") from exc
        if not (isinstance(data, dict) and type(data.get("dim")) is int and "records" in data):
            raise MalformedResponse(f"embedding fixture {path} has no integer dim or no records")
        self.dim, records = data["dim"], data["records"]
        if not isinstance(records, list) or not all(
                isinstance(r, dict) and isinstance(r.get("text"), str)
                and isinstance(r.get("vector"), list) for r in records):
            raise MalformedResponse(
                f"embedding fixture {path}: records must be a list of "
                "{'text': str, 'vector': list}")
        self._table: dict[str, "np.ndarray"] = {}
        drifted = 0
        for rec in records:
            vec = _json_vector(rec["vector"])
            if vec.shape[0] != self.dim:
                raise DimensionMismatch(
                    f"fixture record for {rec['text']!r} has dim {vec.shape[0]}, "
                    f"fixture declares {self.dim}"
                )
            norm = float(np.linalg.norm(vec))
            if norm < 1e-6:
                raise MalformedResponse(
                    f"embedding fixture {path}: record for {rec['text']!r} has norm "
                    f"{norm:.3g}, below 1e-6")
            if rec["text"] in self._table:
                raise MalformedResponse(
                    f"embedding fixture {path}: more than one record for {rec['text']!r}")
            if abs(norm - 1.0) > 1e-6:
                drifted += 1
            self._table[rec["text"]] = l2_normalize(vec)
        if drifted:
            warnings.warn(
                f"embedding fixture {path}: {drifted} record(s) drifted from unit "
                "norm by more than 1e-6; re-normalized on load",
                RuntimeWarning,
                stacklevel=2,
            )

    def encode(self, text: str) -> "np.ndarray":
        try:
            return self._table[text]
        except KeyError:
            raise EncoderUnavailable(
                f"embedding fixture {self.path} has no vector for text {text!r}"
            ) from None


def encode(text: str, encoder) -> "np.ndarray":
    """Encode text into an l2-normalized float64 embedding of encoder.dim.

    Deterministic per (text, encoder); the raw encoder output must have
    norm >= 1e-6 and match the declared dimension.
    """
    import numpy as np

    from .core import as_embedding, l2_normalize

    if not isinstance(text, str) or not text:
        raise ConfigError("text must be a nonempty string")
    raw = as_embedding(encoder.encode(text))
    if raw.shape[0] != encoder.dim:
        raise DimensionMismatch(
            f"encoder returned dim {raw.shape[0]}, declared {encoder.dim}"
        )
    if float(np.linalg.norm(raw)) < 1e-6:
        raise EncoderUnavailable(f"encoder returned a near-zero vector for {text!r}")
    return l2_normalize(raw)


def encode_texts(texts, encoder) -> dict:
    """{text: encode(text, encoder)} for each distinct text, in first-seen
    order."""
    return {text: encode(text, encoder) for text in dict.fromkeys(texts)}


def write_embedding_fixture(path: str, dim: int, records: dict) -> None:
    """Write an embedding fixture file; `records` maps text -> vector."""
    payload = {
        "dim": int(dim),
        "records": [
            {"text": text, "vector": [float(x) for x in vec]}
            for text, vec in records.items()
        ],
    }
    atomic_write(path, (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
