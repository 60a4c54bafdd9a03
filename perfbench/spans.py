"""In-memory span tracing, installed from outside the program.

Each traced function is wrapped where its callers look it up (the
module that defines it and every module that imported it by name), so
the program itself is unchanged. A span records its name, start, end,
parent span and request id (one request is one CLI command of one
pass). A layer's self time is its span's duration minus the time its
direct child spans cover.

Kernel operation counts are computed from the call shapes, not
measured:
  scene_loss_grad_kernel  flops = 4*B*C*L*D
                          bytes = 8*(inputs + outputs + SCENE_INTERMEDIATES*B*C*L)
  softmax_ce_kernel       flops = 4*B*C*D
"""

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "semproto"

# (B, C, L) float64 arrays the numpy scene kernel materialises:
# s, z, sig, y, g, dtdz, dlds.
SCENE_INTERMEDIATES = 7


def _scene_counts(args, kwargs, result) -> dict:
    (b, d), (c, l, _) = args[0].shape, args[1].shape
    inputs = b * d + c * l * d + b  # features, slot bank, labels
    outputs = b * d + 1  # gradient, loss
    return {"gflop": 4 * b * c * l * d / 1e9,
            "mb": 8 * (inputs + outputs + SCENE_INTERMEDIATES * b * c * l) / 1e6}


def _softmax_counts(args, kwargs, result) -> dict:
    (b, d), c = args[0].shape, args[1].shape[0]
    return {"gflop": 4 * b * c * d / 1e9}


def _world_key(args, kwargs):
    return args[0] if args else kwargs["spec"]


def _bank_key(args, kwargs):
    world = args[0] if args else kwargs["world"]
    return world.spec, args[1:], tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class SpanSpec:
    layer: str  # module name inside the package
    func: str  # function, or Class.method
    bindings: tuple[str, ...]  # modules whose attribute is patched
    stats: tuple[str, ...]  # per-layer metrics reported for this span
    key: Callable | None = None  # args -> hashable, for distinct_frac
    counts: Callable | None = None  # (args, kwargs, result) -> {stat: value}

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.func}"


SPANS = (
    SpanSpec("cli", "main", ("cli",), ("calls", "self_s")),
    SpanSpec("config", "load_config", ("config", "cli"), ("calls", "s")),
    SpanSpec("descriptions", "generate_descriptions", ("descriptions", "cli"), ("calls", "s")),
    SpanSpec("descriptions", "encode", ("descriptions", "cli", "prototypes"), ("calls", "s")),
    SpanSpec("prototypes", "build_bank", ("prototypes", "cli", "synthbench"), ("calls", "s")),
    SpanSpec("prototypes", "PrototypeBank.save", ("prototypes",), ("calls", "s")),
    SpanSpec("synthbench", "generate_world", ("synthbench", "cli"),
             ("calls", "s", "distinct_frac"), key=_world_key),
    SpanSpec("synthbench", "build_toy_bank", ("synthbench", "cli"),
             ("calls", "s", "distinct_frac"), key=_bank_key),
    SpanSpec("synthbench", "train", ("synthbench",), ("calls", "steps", "self_s"),
             counts=lambda a, kw, r: {"steps": len(r[1])}),
    SpanSpec("synthbench", "evaluate", ("synthbench", "cli"), ("calls", "s")),
    # Only the caller's binding: weak_cls_loss calls det_cls_loss inside
    # alignment, and that inner call belongs to the weak span.
    SpanSpec("alignment", "det_cls_loss", ("synthbench",), ("calls", "self_s")),
    SpanSpec("alignment", "weak_cls_loss", ("synthbench", "alignment"), ("calls", "self_s")),
    SpanSpec("alignment", "scene_loss_and_grad", ("synthbench", "alignment"),
             ("calls", "self_s")),
    SpanSpec("backend", "scene_loss_grad_kernel", ("backend",),
             ("calls", "s", "gflop", "mb", "gflops"), counts=_scene_counts),
    SpanSpec("backend", "softmax_ce_kernel", ("backend",),
             ("calls", "s", "gflop", "gflops"), counts=_softmax_counts),
)
LAYERS = tuple(dict.fromkeys(spec.layer for spec in SPANS))


@dataclass
class Span:
    name: str
    layer: str
    request: tuple
    parent: int  # index into Tracer.spans, -1 at the top
    parent_name: str | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    key: object = None
    counts: dict = field(default_factory=dict)
    error: str | None = None  # exception type, when one escaped this layer here

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while `installed()` has the wrappers patched in."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: tuple = ()
        self._stack: list[int] = []
        self._escaped: dict[str, list] = {layer: [] for layer in LAYERS}
        self._t0 = time.perf_counter()

    def _wrap(self, spec: SpanSpec, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(spec.name, spec.layer, tracer.request, parent,
                        tracer.spans[parent].name if parent >= 0 else None,
                        time.perf_counter() - tracer._t0,
                        key=spec.key(args, kwargs) if spec.key else None)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, parent)
                # count each exception once per layer it escapes
                if not any(e is exc for e in tracer._escaped[spec.layer]):
                    tracer._escaped[spec.layer].append(exc)
                    span.error = type(exc).__name__
                raise
            tracer._close(span, parent)
            if spec.counts:
                span.counts = spec.counts(args, kwargs, result)
            return result

        return wrapper

    def _close(self, span: Span, parent: int) -> None:
        span.end = time.perf_counter() - self._t0
        self._stack.pop()
        if parent >= 0:
            self.spans[parent].child_s += span.dur

    @contextlib.contextmanager
    def installed(self):
        """Patch a wrapper into every binding of every span; restore on exit."""
        saved = []
        try:
            for spec in SPANS:
                owner, _, attr = spec.func.rpartition(".")
                home = sys.modules[f"{PACKAGE}.{spec.layer}"]
                original = getattr(getattr(home, owner) if owner else home, attr)
                wrapper = self._wrap(spec, original)
                for binding in spec.bindings:
                    target = sys.modules[f"{PACKAGE}.{binding}"]
                    if owner:
                        target = getattr(target, owner)
                    saved.append((target, attr, target.__dict__[attr]))
                    setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def to_records(self):
        for i, s in enumerate(self.spans):
            yield {"id": i, "name": s.name, "request": list(s.request),
                   "parent": s.parent, "start": s.start, "end": s.end,
                   "self_s": s.dur - s.child_s, "counts": s.counts, "error": s.error}


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans of that pass only)."""
    by_name: dict[str, list[Span]] = {spec.name: [] for spec in SPANS}
    for s in spans:
        by_name[s.name].append(s)
    out: dict[str, float] = {}
    for spec in SPANS:
        group = by_name[spec.name]
        total = sum(s.dur for s in group)
        for stat in spec.stats:
            if stat == "calls":
                value = len(group)
            elif stat == "s":
                value = total
            elif stat == "self_s":
                value = sum(s.dur - s.child_s for s in group)
            elif stat == "distinct_frac":
                value = len({s.key for s in group}) / len(group) if group else 0.0
            elif stat == "gflops":
                value = sum(s.counts.get("gflop", 0.0) for s in group) / total if total else 0.0
            else:
                value = sum(s.counts.get(stat, 0) for s in group)
            out[f"{spec.name}.{stat}"] = value
    for caller, short in (("alignment.det_cls_loss", "det"), ("alignment.weak_cls_loss", "weak")):
        out[f"backend.softmax_ce_kernel.{short}_s"] = sum(
            s.dur for s in by_name["backend.softmax_ce_kernel"] if s.parent_name == caller)
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(1 for s in spans if s.layer == layer and s.error)
    covered = sum(s.dur - s.child_s for s in spans)
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return out


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
