"""The text-side subcommand handlers: gen-descriptions, encode and
build-bank, which describe the classes, encode the texts and aggregate
them into a prototype bank.

Nothing here imports numpy at module level, so gen-descriptions runs
without it; encode loads it with its first embedding and build-bank with
`prototypes`. Neither loads the synthetic world, the losses or `cli`.
`entry.main` runs their `cmd_*` handlers and maps their errors to exit
codes. The handlers call `descriptions` and `prototypes` through their
modules, so a wrapper patched into either module sees the call.
"""

from . import descriptions
from .config import __version__
from .entry import _emit
from .errors import ConfigError


def _remote_config(args) -> descriptions.RemoteClientConfig:
    return descriptions.RemoteClientConfig(
        endpoint=args.endpoint, api_key_env=args.api_key_env,
        timeout_s=args.timeout, max_parallel=args.max_parallel)


def _make_encoder(args):
    if args.encoder == "toy":
        return descriptions.DeterministicToyEncoder(dim=args.encoder_dim,
                                                    seed=args.encoder_seed)
    if args.encoder == "fixture":
        return descriptions.FixtureEncoder(args.embeddings)
    if args.encoder == "remote":
        if not args.endpoint:
            raise ConfigError("--encoder remote requires --endpoint")
        return descriptions.RemoteEncoder(_remote_config(args), dim=args.encoder_dim)
    raise ConfigError(f"unknown encoder '{args.encoder}'")


def _aggregation(flag: str):
    from .prototypes import Aggregation

    return Aggregation(flag.replace("-", "_"))


def cmd_gen_descriptions(args) -> int:
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    if not classes:
        raise ConfigError("--classes is empty")
    if args.endpoint:
        client = descriptions.RemoteDescriptionClient(_remote_config(args))
    else:
        client = descriptions.FixtureDescriptionClient(args.fixture)
    sets = descriptions.generate_descriptions(classes, args.k, args.l, client)
    descriptions.write_description_file(args.out, sets)
    _emit({"command": "gen-descriptions", "classes": sorted(set(classes)),
           "k": args.k, "l": args.l, "out": args.out, "version": __version__})
    return 0


def cmd_encode(args) -> int:
    desc = descriptions.read_description_file(args.descriptions)
    if not desc:  # as build_bank refuses it
        raise ConfigError("no classes to encode")
    enc = _make_encoder(args)
    vectors = descriptions.encode_texts(
        [text for name in sorted(desc) for text in desc[name].all_texts()], enc)
    descriptions.write_embedding_fixture(args.out, enc.dim, vectors)
    _emit({"command": "encode", "encoder": args.encoder, "dim": enc.dim,
           "texts": len(vectors), "out": args.out, "version": __version__})
    return 0


def cmd_build_bank(args) -> int:
    from . import prototypes

    desc = descriptions.read_description_file(args.descriptions)
    enc = _make_encoder(args)
    bank = prototypes.build_bank(
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
