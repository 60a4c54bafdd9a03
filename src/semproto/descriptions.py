"""Textual class descriptions: prompt rendering, generation clients,
and pluggable text encoders.

Three prompt families exist per class: a generic appearance description,
K state-specific descriptions, and L scene phrases of the form
"<class> + context". Generation is delegated to a client (checked-in
fixture by default, remote HTTP service optionally); encoding to a text
encoder (deterministic toy hash encoder or embedding-fixture lookup by
default, remote service optionally). Everything shipped runs offline.

Prompts, clients and description files need no numpy: the encoders load
it, and the vector checks in `core`, on first use, so `semproto
gen-descriptions` never imports it.
"""

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .atomic import atomic_write
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


def _read_json(path: str, what: str, unavailable):
    """Parse a JSON input file; an unreadable file raises `unavailable`
    (the caller's error class); bytes that are not UTF-8 JSON raise
    MalformedResponse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise unavailable(f"cannot read {what} {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedResponse(f"{what} {path} is not UTF-8 JSON: {exc}") from exc


def _check_record(where: str, rec) -> dict:
    """`rec` if it is a {"generic": str, "states": [str], "scenes": [str]}
    map, else MalformedResponse naming `where`."""
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
    return rec


class FixtureDescriptionClient:
    """Serves pre-generated descriptions from a checked-in JSON file.

    File format (the description file, also read by read_description_file
    and written by write_description_file): top-level map class_name ->
    {"generic": str, "states": [str], "scenes": [str]}.
    """

    def __init__(self, path: str):
        self.path = path
        data = _read_json(path, "description file", ClientUnavailable)
        if not isinstance(data, dict):
            raise MalformedResponse(f"description file {path}: top level must be a map")
        self._data = data

    def describe(self, class_name: str) -> dict:
        _require_name(class_name)
        if class_name not in self._data:
            raise ClientUnavailable(
                f"fixture {self.path} has no descriptions for class '{class_name}'"
            )
        return _check_record(f"fixture {self.path}, class '{class_name}'",
                             self._data[class_name])


def read_description_file(path: str) -> dict:
    """Load a description file into {class_name: DescriptionSet}."""
    client = FixtureDescriptionClient(path)
    out = {}
    for name in client._data:
        rec = client.describe(name)
        out[name] = DescriptionSet(
            class_name=name,
            generic=rec["generic"],
            states=tuple(rec["states"]),
            scenes=tuple(rec["scenes"]),
        )
    return out


def write_description_file(path: str, sets: dict) -> None:
    """Write {class_name: DescriptionSet} as a description file."""
    payload = {
        name: {"generic": ds.generic, "states": list(ds.states),
               "scenes": list(ds.scenes)}
        for name, ds in sets.items()
    }
    atomic_write(path, (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))


@dataclass(frozen=True)
class RemoteClientConfig:
    """Connection settings for a remote generation/encoding service."""

    endpoint: str
    api_key_env: str = "SEMPROTO_API_KEY"
    timeout_s: float = 30.0
    max_parallel: int = 4

    def __post_init__(self):
        # 0 would make the socket non-blocking; -1, nan, inf break it
        if not 0.0 < self.timeout_s < math.inf:
            raise ConfigError(
                f"timeout must be finite and > 0 seconds, got {self.timeout_s}")
        if self.max_parallel < 1:
            raise ConfigError(f"max_parallel must be >= 1, got {self.max_parallel}")


def _post_json(config: RemoteClientConfig, payload: dict, unavailable) -> dict:
    """POST `payload` as JSON; return the JSON object the endpoint answers.

    No API key, no answer or a truncated one raises `unavailable` (the
    caller's error class); a body that is not a UTF-8 JSON object,
    MalformedResponse.
    """
    # Imported here: http, ssl and email would add to every CLI start.
    import http.client
    import urllib.request

    key = os.environ.get(config.api_key_env, "")
    if not key:
        raise unavailable(f"API key environment variable {config.api_key_env} is not set")
    req = urllib.request.Request(
        config.endpoint,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json",
                 "Authorization": f"Bearer {key}"},
    )
    try:
        with urllib.request.urlopen(req, timeout=config.timeout_s) as resp:
            raw = resp.read()
    except (OSError, http.client.HTTPException) as exc:  # URLError and timeouts are OSErrors
        raise unavailable(f"request to {config.endpoint} failed: {exc!r}") from exc
    try:
        rec = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedResponse(f"endpoint {config.endpoint} returned non-JSON body: {exc}") from exc
    if not isinstance(rec, dict):
        raise MalformedResponse(f"endpoint {config.endpoint} returned JSON that is not an object")
    return rec


class RemoteDescriptionClient:
    """HTTP client for an external description-generation service.

    POSTs the three rendered prompts per class and expects a JSON body
    {"generic": str, "states": [str], "scenes": [str]}. The response must
    arrive pre-split into clean lists; parsing policy is the service's.
    """

    def __init__(self, config: RemoteClientConfig):
        self.config = config

    @property
    def max_parallel(self) -> int:
        return self.config.max_parallel

    def build_payload(self, class_name: str) -> dict:
        return {
            "class_name": class_name,
            "prompts": {
                "generic": render_generic_prompt(class_name),
                "state": render_state_prompt(class_name),
                "scene": render_scene_prompt(class_name),
            },
        }

    def describe(self, class_name: str) -> dict:
        rec = _post_json(self.config, self.build_payload(class_name), ClientUnavailable)
        return _check_record(f"service response for class '{class_name}'", rec)


def _build_set(class_name: str, rec: dict, k: int, l: int) -> DescriptionSet:
    generic = rec["generic"].strip()
    states = [s.strip() for s in rec["states"]]
    scenes = [s.strip() for s in rec["scenes"]]
    if len(states) < k:
        raise InsufficientDescriptions(class_name, len(states), k, kind="states")
    if len(scenes) < l:
        raise InsufficientDescriptions(class_name, len(scenes), l, kind="scenes")
    # Over-production is truncated in response order; under-production
    # errors above rather than being padded.
    return DescriptionSet(class_name, generic, tuple(states[:k]), tuple(scenes[:l]))


def _map_parallel(fn, items: list, parallel: int) -> list:
    """[fn(item) for item in items], with up to `parallel` calls in flight
    on a thread pool when parallel > 1 and there is more than one item."""
    if parallel > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(parallel, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def generate_descriptions(class_names, k: int, l: int, client) -> dict:
    """Fetch and validate exactly k states and l scenes per class.

    Results are merged in sorted class-name order regardless of the
    client's completion order; remote clients with max_parallel > 1 are
    queried concurrently.
    """
    if k < 1 or l < 1:
        raise ConfigError(f"k and l must be >= 1, got k={k}, l={l}")
    names = [_require_name(n) for n in class_names]
    ordered = sorted(set(names))
    recs = _map_parallel(client.describe, ordered, int(getattr(client, "max_parallel", 1)))
    return {name: _build_set(name, rec, k, l) for name, rec in zip(ordered, recs)}


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
    if any stored norm drifts from 1 by more than 1e-6.
    """

    def __init__(self, path: str):
        import numpy as np

        from .core import l2_normalize

        self.path = path
        data = _read_json(path, "embedding fixture", EncoderUnavailable)
        try:
            self.dim = data["dim"]
            if isinstance(self.dim, bool) or not isinstance(self.dim, int):
                raise TypeError(f"dim must be an integer, got {self.dim!r}")
            records = data["records"]
        except (KeyError, TypeError) as exc:
            raise MalformedResponse(
                f"embedding fixture {path} has no integer dim or no records: {exc}"
            ) from exc
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


class RemoteEncoder:
    """HTTP client for an external text-encoding service."""

    def __init__(self, config: RemoteClientConfig, dim: int):
        self.config = config
        self.dim = int(dim)

    @property
    def max_parallel(self) -> int:
        return self.config.max_parallel

    def encode(self, text: str) -> "np.ndarray":
        rec = _post_json(self.config, {"text": text}, EncoderUnavailable)
        if "vector" not in rec:
            raise MalformedResponse("encoder response missing 'vector'")
        return _json_vector(rec["vector"], dim=self.dim)


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
    order. An encoder with max_parallel > 1 (the remote one) gets up to
    that many requests at once; the others run serially in this thread."""
    distinct = list(dict.fromkeys(texts))
    vectors = _map_parallel(lambda text: encode(text, encoder), distinct,
                            int(getattr(encoder, "max_parallel", 1)))
    return dict(zip(distinct, vectors))


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
