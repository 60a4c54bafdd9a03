"""The text-side subcommand handlers: gen-descriptions, encode and
build-bank, which describe the classes, encode the texts and aggregate
them into a prototype bank.

Nothing here imports numpy at module level, so gen-descriptions runs
without it; encode loads it with its first embedding and build-bank with
`prototypes`. Neither loads the synthetic world, the losses or `cli`.
`entry.main` runs their `cmd_*` handlers, prints the record fields each
returns and maps their errors to exit codes. The handlers call
`descriptions` and `prototypes` through their modules, so a wrapper
patched into either module sees the call.
"""

from . import descriptions
from .errors import ConfigError


def _make_encoder(args):
    if args.encoder == "toy":
        return descriptions.DeterministicToyEncoder(dim=args.encoder_dim,
                                                    seed=args.encoder_seed)
    if args.encoder == "fixture":
        return descriptions.FixtureEncoder(args.embeddings)
    raise ConfigError(f"unknown encoder '{args.encoder}'")


def cmd_gen_descriptions(args) -> dict:
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    if not classes:
        raise ConfigError("--classes is empty")
    sets = descriptions.generate_descriptions(classes, args.k, args.l, args.fixture)
    descriptions.write_description_file(args.out, sets)
    return {"classes": sorted(set(classes)), "k": args.k, "l": args.l, "out": args.out}


def cmd_encode(args) -> dict:
    desc = descriptions.read_description_file(args.descriptions)
    if not desc:  # as build_bank refuses it
        raise ConfigError("no classes to encode")
    enc = _make_encoder(args)
    vectors = descriptions.encode_texts(
        [text for name in sorted(desc) for text in desc[name].all_texts()], enc)
    descriptions.write_embedding_fixture(args.out, enc.dim, vectors)
    return {"encoder": args.encoder, "dim": enc.dim, "texts": len(vectors), "out": args.out}


def cmd_build_bank(args) -> dict:
    from . import prototypes

    desc = descriptions.read_description_file(args.descriptions)
    enc = _make_encoder(args)
    bank = prototypes.build_bank(
        desc,
        enc,
        strategy=args.aggregator.replace("-", "_"),
        k=args.k,
        l=args.l,
    )
    bank.save(args.out)
    return {
        "aggregator": bank.strategy.value,
        "k": args.k,
        "l": args.l,
        "classes": list(bank.vocab),
        "dim": bank.dim,
        "out": args.out,
    }
