"""The subcommand handlers behind the parser in `entry`.

`run(args)` calls the handler `entry.main` parsed for and maps library
errors to the documented exit codes. This module loads numpy and the
whole library; `entry` imports it only once argv has parsed.
"""

import hashlib
import io
import json
import sys

import numpy as np

from .atomic import atomic_write
from .config import __version__, load_config, resolved_config
from .descriptions import (
    DeterministicToyEncoder,
    FixtureDescriptionClient,
    FixtureEncoder,
    RemoteClientConfig,
    RemoteDescriptionClient,
    RemoteEncoder,
    encode,
    generate_descriptions,
    read_description_file,
    write_description_file,
    write_embedding_fixture,
)
from .entry import main  # noqa: F401  (perfbench/spans.py patches cli.main)
from .errors import (
    AllWeightsZero,
    ConfigError,
    DimensionMismatch,
    DivergenceDetected,
    EmptyClassName,
    InfeasibleWorld,
    MalformedResponse,
    SemprotoError,
    ZeroNorm,
)
from .prototypes import Aggregation, build_bank
# build_toy_bank stays bound here for perfbench/spans.py, which patches
# the synthbench functions in every module that imports them by name.
from .synthbench import (  # noqa: F401
    ROW_BLOCK_BYTES,
    ProbeModel,
    build_run_bank,
    build_toy_bank,
    effective_world,
    evaluate,
    generate_world,
    initial_probe,
    run_ablation,
    select_max_size_proposal,
    train_and_evaluate,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_CONFIG_ERRORS = (ConfigError, InfeasibleWorld, EmptyClassName)
_NUMERIC_ERRORS = (ZeroNorm, AllWeightsZero, DivergenceDetected)
_DATA_ERRORS = (OSError,)


def _write_jsonl(path: str, records) -> None:
    """One sorted-key JSON line per record; a .json output is one record.

    A non-finite number is a bug: it raises before anything is written.
    """
    lines = "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n"
                    for r in records)
    atomic_write(path, lines.encode("utf-8"))


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, allow_nan=False))


def _remote_config(args) -> RemoteClientConfig:
    return RemoteClientConfig(endpoint=args.endpoint, api_key_env=args.api_key_env,
                              timeout_s=args.timeout, max_parallel=args.max_parallel)


def _make_encoder(args):
    if args.encoder == "toy":
        return DeterministicToyEncoder(dim=args.encoder_dim, seed=args.encoder_seed)
    if args.encoder == "fixture":
        return FixtureEncoder(args.embeddings)
    if args.encoder == "remote":
        if not args.endpoint:
            raise ConfigError("--encoder remote requires --endpoint")
        return RemoteEncoder(_remote_config(args), dim=args.encoder_dim)
    raise ConfigError(f"unknown encoder '{args.encoder}'")


def _aggregation(flag: str) -> Aggregation:
    return Aggregation(flag.replace("-", "_"))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_gen_descriptions(args) -> int:
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    if not classes:
        raise ConfigError("--classes is empty")
    if args.endpoint:
        client = RemoteDescriptionClient(_remote_config(args))
    else:
        client = FixtureDescriptionClient(args.fixture)
    sets = generate_descriptions(classes, args.k, args.l, client)
    write_description_file(args.out, sets)
    _emit({"command": "gen-descriptions", "classes": sorted(set(classes)),
           "k": args.k, "l": args.l, "out": args.out, "version": __version__})
    return 0


def cmd_encode(args) -> int:
    desc = read_description_file(args.descriptions)
    enc = _make_encoder(args)
    vectors = {}
    for name in sorted(desc):
        for text in desc[name].all_texts():
            if text not in vectors:
                vectors[text] = encode(text, enc)
    write_embedding_fixture(args.out, enc.dim, vectors)
    _emit({"command": "encode", "encoder": args.encoder, "dim": enc.dim,
           "texts": len(vectors), "out": args.out, "version": __version__})
    return 0


def cmd_build_bank(args) -> int:
    desc = read_description_file(args.descriptions)
    enc = _make_encoder(args)
    bank = build_bank(
        desc,
        enc,
        strategy=_aggregation(args.aggregator),
        k=args.k,
        l=args.l,
        normalize=not args.no_normalize,
        clamp_negative=not args.no_clamp_negative,
    )
    bank.save(args.out)
    _emit({
        "command": "build-bank",
        "aggregator": bank.strategy.value,
        "k": args.k,
        "l": args.l,
        "normalize": not args.no_normalize,
        "clamp_negative": not args.no_clamp_negative,
        "classes": list(bank.vocab),
        "dim": bank.dim,
        "out": args.out,
        "version": __version__,
    })
    return 0


def _world_checksum(world) -> str:
    """sha256 over every row, split by split: its feature and its label as
    4 little-endian bytes; a weak row adds each proposal's area and feature.

    Each split is packed into record arrays of those fields, one block of
    rows (at most ROW_BLOCK_BYTES) at a time, and hashed with one update
    per block: the byte stream of hashing row by row."""
    weak_x = select_max_size_proposal(world.weak_areas, world.weak_proposals)
    n_prop, dim = world.weak_proposals.shape[1:]
    row = [("x", "<f8", (dim,)), ("y", "<u4")]
    h = hashlib.sha256()
    for x, y, weak in ((world.det_x, world.det_y, False), (weak_x, world.weak_y, True),
                       (world.test_x, world.test_y, False)):
        dtype = np.dtype(row + ([("extra", "<f8", (n_prop, dim + 1))] if weak else []))
        step = max(1, ROW_BLOCK_BYTES // dtype.itemsize)
        for lo in range(0, len(y), step):
            block = slice(lo, lo + step)
            rec = np.empty(len(y[block]), dtype=dtype)
            rec["x"] = x[block]
            rec["y"] = y[block]
            if weak:
                rec["extra"][..., 0] = world.weak_areas[block]
                rec["extra"][..., 1:] = world.weak_proposals[block]
            h.update(rec)
    return h.hexdigest()


def _histogram(labels) -> dict:
    values, counts = np.unique(labels, return_counts=True)
    return {str(v): int(n) for v, n in zip(values, counts)}


def cmd_simulate(args) -> int:
    world_spec, cfg = load_config(args.config, args.set)
    world = generate_world(effective_world(world_spec, cfg))
    splits = {"train_det": world.det_y, "train_weak": world.weak_y, "test": world.test_y}
    summary = {
        "kind": "world_summary",
        "config": resolved_config(world_spec, cfg),
        "sizes": {name: len(y) for name, y in splits.items()},
        "label_histograms": {name: _histogram(y) for name, y in splits.items()},
        "feature_sha256": _world_checksum(world),
        "version": __version__,
    }
    _write_jsonl(args.out, [summary])
    _emit({"command": "simulate", "out": args.out,
           "feature_sha256": summary["feature_sha256"], "version": __version__})
    return 0


def cmd_train(args) -> int:
    world_spec, cfg = load_config(args.config, args.set)
    record, probe = train_and_evaluate(world_spec, cfg)
    _write_jsonl(args.out, [record])
    if args.save_probe:
        buf = io.BytesIO()
        np.savez(buf, weight=probe.weight, bias=probe.bias)
        atomic_write(args.save_probe, buf.getvalue())
    _emit({"command": "train", "out": args.out,
           "metrics": record["metrics"], "version": __version__})
    return 0


def cmd_evaluate(args) -> int:
    world_spec, cfg = load_config(args.config, args.set)
    world = generate_world(effective_world(world_spec, cfg))
    bank = build_run_bank(world, cfg)
    if args.probe:
        try:
            with np.load(args.probe) as data:
                probe = ProbeModel(weight=data["weight"], bias=data["bias"])
        except (ValueError, KeyError, OSError) as exc:
            raise MalformedResponse(f"cannot load probe {args.probe}: {exc}") from exc
        if probe.weight.shape != (world.spec.dim, bank.dim):
            raise DimensionMismatch(
                f"probe {args.probe} maps {probe.weight.shape[0]} -> "
                f"{probe.weight.shape[1]} dims; this world needs "
                f"{world.spec.dim} -> {bank.dim}"
            )
        probe_src = args.probe
    else:
        probe = initial_probe(world)
        probe_src = "fresh"
    metrics = evaluate(probe, bank, world.test_x, world.test_y, world_spec.n_base)
    result = {
        "kind": "evaluation",
        "config": resolved_config(world_spec, cfg),
        "probe": probe_src,
        "metrics": metrics,
        "version": __version__,
    }
    _write_jsonl(args.out, [result])
    _emit({"command": "evaluate", "out": args.out, "metrics": metrics,
           "version": __version__})
    return 0


def cmd_ablate(args) -> int:
    world_spec, cfg = load_config(args.config, args.set)
    seeds = [cfg.seed + i for i in range(args.seeds)]
    records = run_ablation(world_spec, cfg, args.grid, seeds)
    _write_jsonl(args.out, records)
    n_runs = sum(1 for r in records if r.get("kind") == "run")
    _emit({"command": "ablate", "grid": args.grid, "runs": n_runs,
           "seeds": args.seeds, "out": args.out, "version": __version__})
    return 0


def _classify_error(exc: Exception) -> tuple[str, int]:
    if isinstance(exc, _CONFIG_ERRORS):
        return type(exc).__name__, EXIT_CONFIG
    if isinstance(exc, _NUMERIC_ERRORS):
        return type(exc).__name__, EXIT_NUMERIC
    if isinstance(exc, _DATA_ERRORS):
        return type(exc).__name__, EXIT_DATA
    if isinstance(exc, SemprotoError):
        return type(exc).__name__, EXIT_DATA
    raise exc


_HANDLERS = {
    "gen-descriptions": cmd_gen_descriptions,
    "encode": cmd_encode,
    "build-bank": cmd_build_bank,
    "simulate": cmd_simulate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
}


def run(args) -> int:
    """Run the subcommand `args.command` of parsed arguments; a library
    error prints one JSON line on stderr and returns its exit code."""
    try:
        return _HANDLERS[args.command](args)
    except Exception as exc:  # mapped to documented exit codes
        kind, code = _classify_error(exc)
        line = json.dumps(
            {"error": kind, "exit": code, "message": str(exc)}, sort_keys=True
        )
        print(line, file=sys.stderr)
        return code
