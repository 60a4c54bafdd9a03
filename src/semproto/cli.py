"""Command-line front end.

Subcommands: gen-descriptions, encode, build-bank, simulate, train,
evaluate, ablate. Behavior is driven by a JSON config file plus --set
key=value overrides (later sources win); every run prints a single-line
JSON record with the fully resolved config, and every output file is
written atomically. Errors exit with distinct codes: config 2, data 3,
numerical 4, and emit one machine-parsable JSON line on stderr. Any
other exception is a bug: it propagates with its traceback (exit 1).
"""

import argparse
import hashlib
import io
import json
import sys

import numpy as np

from .atomic import atomic_write
from .config import __version__, config_help_epilog, load_config, resolved_config
from .descriptions import (
    DeterministicToyEncoder,
    FixtureDescriptionClient,
    FixtureEncoder,
    RemoteClientConfig,
    RemoteDescriptionClient,
    RemoteEncoder,
    encode,
    fixture_path,
    generate_descriptions,
    read_description_file,
    write_description_file,
    write_embedding_fixture,
)
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
    ABLATION_GRIDS,
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
    4 little-endian bytes; a weak row adds each proposal's area and feature."""
    weak_x = select_max_size_proposal(world.weak_areas, world.weak_proposals)
    weak_extra = np.concatenate([world.weak_areas[..., None], world.weak_proposals],
                                axis=2)
    h = hashlib.sha256()
    for x, y, extra in ((world.det_x, world.det_y, None),
                        (weak_x, world.weak_y, weak_extra),
                        (world.test_x, world.test_y, None)):
        for i, label in enumerate(y):
            h.update(x[i].tobytes())
            h.update(int(label).to_bytes(4, "little"))
            if extra is not None:
                h.update(extra[i].tobytes())
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


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="JSON config file with 'world' and 'train' sections")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key, e.g. --set train.lam=0.2")


def _add_encoder_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--encoder", choices=("toy", "fixture", "remote"),
                   default="fixture", help="text encoder backend")
    p.add_argument("--embeddings", default=fixture_path("embeddings_small.json"),
                   help="embedding fixture JSON (encoder=fixture)")
    p.add_argument("--encoder-dim", type=int, default=32,
                   help="embedding dimension (encoder=toy/remote)")
    p.add_argument("--encoder-seed", type=int, default=7,
                   help="toy encoder seed [artifact]")


def _add_remote_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--endpoint", default=None,
                   help="remote service URL (enables the remote client)")
    p.add_argument("--api-key-env", default="SEMPROTO_API_KEY",
                   help="environment variable holding the API key")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="remote request timeout in seconds")
    p.add_argument("--max-parallel", type=int, default=4,
                   help="max concurrent remote requests")


def build_parser() -> argparse.ArgumentParser:
    epilog = config_help_epilog()
    parser = argparse.ArgumentParser(
        prog="semproto",
        description=__doc__,
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def _sub(name, handler, help_text):
        p = sub.add_parser(
            name, help=help_text, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.set_defaults(func=handler)
        return p

    p = _sub("gen-descriptions", cmd_gen_descriptions,
             "generate per-class descriptions from a fixture or remote service")
    p.add_argument("--classes", required=True,
                   help="comma-separated class names")
    p.add_argument("--k", type=int, default=5,
                   help="state descriptions per class (default 5 [paper])")
    p.add_argument("--l", type=int, default=5,
                   help="scene phrases per class (default 5 [paper])")
    p.add_argument("--fixture", default=fixture_path("descriptions_small.json"),
                   help="description fixture JSON (default: shipped 2-class fixture)")
    _add_remote_args(p)
    p.add_argument("--out", required=True, help="output descriptions JSON")

    p = _sub("encode", cmd_encode,
             "encode every description text into an embedding fixture")
    p.add_argument("--descriptions", default=fixture_path("descriptions_small.json"),
                   help="descriptions JSON to encode")
    _add_encoder_args(p)
    _add_remote_args(p)
    p.add_argument("--out", required=True, help="output embedding fixture JSON")

    p = _sub("build-bank", cmd_build_bank,
             "aggregate encoded descriptions into a prototype bank file")
    p.add_argument("--descriptions", default=fixture_path("descriptions_small.json"),
                   help="descriptions JSON")
    p.add_argument("--aggregator", default="mean",
                   choices=("mean", "median", "two-stage", "similarity-weighted"),
                   help="aggregation strategy (default mean [paper])")
    p.add_argument("--k", type=int, default=5,
                   help="states aggregated per class (default 5 [paper])")
    p.add_argument("--l", type=int, default=5,
                   help="scene slots per class (default 5 [paper])")
    p.add_argument("--no-normalize", action="store_true",
                   help="keep raw aggregates instead of unit prototypes [artifact]")
    p.add_argument("--no-clamp-negative", action="store_true",
                   help="let negative similarity weights through unclamped [artifact]")
    _add_encoder_args(p)
    _add_remote_args(p)
    p.add_argument("--out", required=True, help="output bank JSON")

    p = _sub("simulate", cmd_simulate,
             "generate the synthetic world and write its summary")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output world summary JSON")

    p = _sub("train", cmd_train,
             "train the linear probe with the combined objective")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output run-record JSONL")
    p.add_argument("--save-probe", default=None,
                   help="also save trained probe weights (npz)")

    p = _sub("evaluate", cmd_evaluate,
             "evaluate a probe (trained or fresh) on the test split")
    _add_config_args(p)
    p.add_argument("--probe", default=None, help="probe npz from train --save-probe")
    p.add_argument("--out", required=True, help="output metrics JSON")

    p = _sub("ablate", cmd_ablate, "run an ablation grid over seeds")
    _add_config_args(p)
    p.add_argument("--grid", default="components",
                   choices=tuple(sorted(ABLATION_GRIDS)),
                   help="which ablation axis to sweep")
    p.add_argument("--seeds", type=int, default=5,
                   help="number of seeds per configuration")
    p.add_argument("--out", required=True, help="output results JSONL")

    return parser


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # mapped to documented exit codes
        kind, code = _classify_error(exc)
        line = json.dumps(
            {"error": kind, "exit": code, "message": str(exc)}, sort_keys=True
        )
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
