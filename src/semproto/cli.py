"""The handlers of the subcommands that run the synthetic benchmark:
simulate, train, evaluate and ablate.

This module loads numpy and the whole library; `entry.main` imports it
only for these commands, once argv has parsed, runs their `cmd_*`
handlers and maps their errors to exit codes. The text-side commands
run from `textcli` without it.
"""

import hashlib
import io
import json

import numpy as np

from .atomic import atomic_write
from .config import __version__, load_config, resolved_config
# generate_descriptions, encode, build_bank and build_toy_bank stay bound
# here for perfbench/spans.py, which patches each traced function in every
# module that imports it by name; textcli calls the text-side ones through
# their modules.
from .descriptions import encode, generate_descriptions  # noqa: F401
from .entry import _emit, main  # noqa: F401  (perfbench/spans.py patches cli.main)
from .errors import DimensionMismatch, MalformedResponse
from .prototypes import build_bank  # noqa: F401
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
    run_world,
    select_max_size_proposal,
    train_and_evaluate,
)


def _write_jsonl(path: str, records) -> None:
    """One sorted-key JSON line per record; a .json output is one record.

    A non-finite number is a bug: it raises before anything is written.
    """
    lines = "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n"
                    for r in records)
    atomic_write(path, lines.encode("utf-8"))


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
    # evaluate scores only the test split: the run world keeps one weak
    # proposal per image instead of all of them
    world = run_world(effective_world(world_spec, cfg))
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
