"""Command-line front end.

Subcommands: gen-descriptions, encode, build-bank, simulate, train,
evaluate, ablate. Behavior is driven by a JSON config file plus --set
key=value overrides (later sources win); every run prints a single-line
JSON record with the fully resolved config, and every output file is
written atomically. Errors exit with distinct codes: config 2, data 3,
numerical 4, and emit one machine-parsable JSON line on stderr. Any
other exception is a bug: it propagates with its traceback (exit 1).
Each subcommand loads only the modules it runs.
"""

# This module imports neither numpy nor any module that does: --version,
# --help and usage errors end in the parser. A subcommand then loads only
# the handler module HANDLER_MODULES names for it.
import argparse
import json
import sys
from importlib import import_module, resources

from .config import __version__, config_help_epilog
from .errors import (
    AllWeightsZero,
    ConfigError,
    DivergenceDetected,
    EmptyClassName,
    InfeasibleWorld,
    SemprotoError,
    ZeroNorm,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_CONFIG_ERRORS = (ConfigError, InfeasibleWorld, EmptyClassName)
_NUMERIC_ERRORS = (ZeroNorm, AllWeightsZero, DivergenceDetected)
_DATA_ERRORS = (OSError,)

# The keys of synthbench.ABLATION_GRIDS, sorted.
GRID_NAMES = ("aggregator", "components", "k", "l", "tau")

# The module whose cmd_<name> runs each subcommand: textcli loads numpy
# only for an embedding, cli loads numpy and the whole library.
HANDLER_MODULES = {
    "gen-descriptions": "textcli", "encode": "textcli", "build-bank": "textcli",
    "simulate": "cli", "train": "cli", "evaluate": "cli", "ablate": "cli",
}


def fixture_path(name: str) -> str:
    """Absolute path of a shipped fixture file."""
    return str(resources.files("semproto").joinpath("fixtures", name))


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

    def _sub(name, help_text):
        return sub.add_parser(
            name, help=help_text, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )

    p = _sub("gen-descriptions",
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

    p = _sub("encode", "encode every description text into an embedding fixture")
    p.add_argument("--descriptions", default=fixture_path("descriptions_small.json"),
                   help="descriptions JSON to encode")
    _add_encoder_args(p)
    _add_remote_args(p)
    p.add_argument("--out", required=True, help="output embedding fixture JSON")

    p = _sub("build-bank", "aggregate encoded descriptions into a prototype bank file")
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

    p = _sub("simulate", "generate the synthetic world and write its summary")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output world summary JSON")

    p = _sub("train", "train the linear probe with the combined objective")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output run-record JSONL")
    p.add_argument("--save-probe", default=None,
                   help="also save trained probe weights (npz)")

    p = _sub("evaluate", "evaluate a probe (trained or fresh) on the test split")
    _add_config_args(p)
    p.add_argument("--probe", default=None, help="probe npz from train --save-probe")
    p.add_argument("--out", required=True, help="output metrics JSON")

    p = _sub("ablate", "run an ablation grid over seeds")
    _add_config_args(p)
    p.add_argument("--grid", default="components", choices=GRID_NAMES,
                   help="which ablation axis to sweep")
    p.add_argument("--seeds", type=int, default=5,
                   help="number of seeds per configuration")
    p.add_argument("--out", required=True, help="output results JSONL")

    return parser


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, allow_nan=False))


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
    """Parse argv, load the chosen subcommand's handler module and run it;
    a library error prints one JSON line on stderr and returns its exit code."""
    args = build_parser().parse_args(argv)
    module = import_module(f".{HANDLER_MODULES[args.command]}", __package__)
    handler = getattr(module, "cmd_" + args.command.replace("-", "_"))
    try:
        return handler(args)
    except Exception as exc:  # mapped to documented exit codes
        kind, code = _classify_error(exc)
        line = json.dumps(
            {"error": kind, "exit": code, "message": str(exc)}, sort_keys=True
        )
        print(line, file=sys.stderr)
        return code
