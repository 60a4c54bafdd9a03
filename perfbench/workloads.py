"""The benchmark's workloads: each is a fixed sequence of `semproto` CLI
commands plus the checks its outputs must pass.

One operation is one CLI command. A command fails when it exits
non-zero or when any check attributed to it fails, so a fast but wrong
run counts against `failed`.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 77  # the calibrated world seed; reference values hold here
ACC_TOL = 0.005  # |acc - reference|; one test sample is 1/1800 of acc_novel
LOSS_RTOL = 1e-6  # relative, on losses: loose enough for summation order only
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
ARMS = ("baseline", "+sesp", "+sapp", "full")
ABLATE_SEEDS = 5

TRAIN_LARGE_SET = (
    "world.dim=64", "world.n_classes=48", "world.n_base=30", "world.l_scenes=9",
    "world.weak_per_class=20", "world.test_per_class=50", "train.l=9",
    "train.steps=40",
)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files the command writes, inside the work dir


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[Path, int], list[Command]]
    # (work dir, seed, stdout of each command) -> [(command index, problem)]
    check: Callable[[Path, int, list[str]], list[tuple[int, str]]]
    # the values compared against reference.json at DEFAULT_SEED
    reference_values: Callable[[Path], dict]


class Problems:
    def __init__(self):
        self.items: list[tuple[int, str]] = []

    def expect(self, idx: int, cond: bool, msg: str) -> bool:
        if not cond:
            self.items.append((idx, msg))
        return cond


def _seed_sets(seed: int, extra=()) -> list[str]:
    out = []
    for item in (f"world.seed={seed}", *extra):
        out += ["--set", item]
    return out


def _expected_echo(seed: int, extra=()) -> dict:
    pairs = (item.split("=", 1) for item in (f"world.seed={seed}", *extra))
    return {key: json.loads(value) for key, value in pairs}


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _last_json_line(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _non_finite(obj, where="") -> list[str]:
    """Paths of every non-finite float inside a JSON value."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [where or "."]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{where}[{i}]")]
    return []


def _check_stdout(p: Problems, idx: int, stdout: str, command: str):
    try:
        line = _last_json_line(stdout)
    except json.JSONDecodeError:
        line = None
    if p.expect(idx, isinstance(line, dict), f"{command}: stdout is not a JSON record"):
        p.expect(idx, line.get("command") == command,
                 f"{command}: stdout names command {line.get('command')!r}")
    return line if isinstance(line, dict) else {}


def _check_run_record(p: Problems, idx: int, rec: dict, echo: dict, steps: int):
    """Checks that hold for any seed on one `kind: run` record."""
    bad = _non_finite(rec)
    p.expect(idx, not bad, f"non-finite values at {bad[:3]}")
    metrics = rec.get("metrics", {})
    for key in ("acc_novel", "acc_base", "acc_all"):
        acc = metrics.get(key)
        p.expect(idx, isinstance(acc, float) and 0.0 <= acc <= 1.0,
                 f"{key} = {acc!r} outside [0, 1]")
    loss = rec.get("loss_summary", {})
    if p.expect(idx, {"initial", "min", "steps"} <= set(loss), "loss_summary incomplete"):
        p.expect(idx, loss["min"] <= loss["initial"],
                 f"loss min {loss['min']} > initial {loss['initial']}")
        p.expect(idx, loss["steps"] == steps, f"loss steps {loss['steps']} != {steps}")
    _check_echo(p, idx, rec.get("config", {}), echo)


def _check_echo(p: Problems, idx: int, config: dict, echo: dict):
    for key, value in echo.items():
        p.expect(idx, config.get(key) == value,
                 f"config echo {key} = {config.get(key)!r}, expected {value!r}")


def reference(workload: str) -> dict:
    """Values one pass produced at DEFAULT_SEED when the benchmark was
    defined (written by make_reference.py)."""
    return _read_json(REFERENCE_FILE)[workload]


def compare_reference(p: Problems, idx: int, got: dict, ref: dict, where=""):
    """Accuracies within ACC_TOL of the reference, other floats (losses)
    within LOSS_RTOL, everything else equal."""
    for key, want in ref.items():
        have = got.get(key) if isinstance(got, dict) else None
        label = f"{where}.{key}" if where else key
        if isinstance(want, dict):
            compare_reference(p, idx, have, want, label)
        elif isinstance(want, float):
            tol = ACC_TOL if key.startswith("acc_") else LOSS_RTOL * abs(want)
            p.expect(idx, isinstance(have, float) and abs(have - want) <= tol,
                     f"{label} = {have!r}, reference {want!r}")
        else:
            p.expect(idx, have == want, f"{label} = {have!r}, reference {want!r}")


# ---------------------------------------------------------------------------
# ablate-components
# ---------------------------------------------------------------------------

def _ablate_commands(work: Path, seed: int) -> list[Command]:
    out = work / "ablate.jsonl"
    return [Command(("ablate", "--grid", "components", "--seeds", str(ABLATE_SEEDS),
                     *_seed_sets(seed), "--out", str(out)), (str(out),))]


def _ablate_records(work: Path) -> tuple[list, list]:
    records = _read_jsonl(work / "ablate.jsonl")
    return ([r for r in records if r.get("kind") == "run"],
            [r for r in records if r.get("kind") == "summary"])


def _ablate_check(work: Path, seed: int, stdouts: list[str]):
    p = Problems()
    line = _check_stdout(p, 0, stdouts[0], "ablate")
    p.expect(0, line.get("runs") == len(ARMS) * ABLATE_SEEDS, f"stdout runs = {line.get('runs')}")
    runs, summaries = _ablate_records(work)
    p.expect(0, len(runs) == len(ARMS) * ABLATE_SEEDS, f"{len(runs)} run records")
    p.expect(0, len(summaries) == len(ARMS), f"{len(summaries)} summary records")
    flags = {"baseline": (False, False), "+sesp": (True, False),
             "+sapp": (False, True), "full": (True, True)}
    for rec in runs:
        arm = rec.get("arm")
        if not p.expect(0, arm in flags, f"unknown arm {arm!r}"):
            continue
        echo = _expected_echo(seed)
        echo.update({"train.seed": rec.get("seed"), "train.use_sesp": flags[arm][0],
                     "train.use_sapp": flags[arm][1]})
        _check_run_record(p, 0, rec, echo, steps=300)
    p.expect(0, sorted((r.get("arm"), r.get("seed")) for r in runs)
             == sorted((a, s) for a in ARMS for s in range(ABLATE_SEEDS)),
             "runs do not cover every (arm, seed) once")
    for s in summaries:
        p.expect(0, not _non_finite(s), f"non-finite summary for {s.get('arm')}")
        for key, acc in s.get("metrics_mean", {}).items():
            p.expect(0, 0.0 <= acc <= 1.0, f"summary {key} = {acc} outside [0, 1]")
    if seed == DEFAULT_SEED:
        if len(summaries) == len(ARMS):
            _c6_ordering(p, summaries)
        compare_reference(p, 0, _ablate_reference(work), reference("ablate-components"))
    return p.items


def _c6_ordering(p: Problems, summaries: list):
    """The paper's headline ordering, as acceptance criterion C6 states it."""
    mean = {s["arm"]: s["metrics_mean"]["acc_novel"] for s in summaries}
    std = [s["metrics_std"]["acc_novel"] for s in summaries]
    pooled = math.sqrt(sum(v * v for v in std) / len(std))
    p.expect(0, mean["baseline"] < mean["+sesp"], f"C6: baseline >= +sesp {mean}")
    p.expect(0, mean["baseline"] < mean["+sapp"], f"C6: baseline >= +sapp {mean}")
    p.expect(0, max(mean["+sesp"], mean["+sapp"]) < mean["full"], f"C6: full not best {mean}")
    p.expect(0, mean["full"] - mean["baseline"] > 2.0 * pooled, "C6: gain within 2 pooled std")


def _outcome(record: dict) -> dict:
    """What reference.json keeps of one run record."""
    loss = record["loss_summary"]
    return {**record["metrics"], "loss_final": loss["final"], "loss_min": loss["min"]}


def _ablate_reference(work: Path) -> dict:
    runs, summaries = _ablate_records(work)
    return {
        "runs": {f"{r['arm']}/{r['seed']}": _outcome(r) for r in runs},
        "summaries": {s["arm"]: s["metrics_mean"] for s in summaries},
    }


# ---------------------------------------------------------------------------
# train-large
# ---------------------------------------------------------------------------

def _train_large_commands(work: Path, seed: int) -> list[Command]:
    out = work / "train.jsonl"
    return [Command(("train", *_seed_sets(seed, TRAIN_LARGE_SET), "--out", str(out)),
                    (str(out),))]


def _train_large_check(work: Path, seed: int, stdouts: list[str]):
    p = Problems()
    line = _check_stdout(p, 0, stdouts[0], "train")
    records = _read_jsonl(work / "train.jsonl")
    if p.expect(0, len(records) == 1 and records[0].get("kind") == "run",
                f"expected one run record, got {len(records)}"):
        _check_run_record(p, 0, records[0], _expected_echo(seed, TRAIN_LARGE_SET), steps=40)
        p.expect(0, line.get("metrics") == records[0].get("metrics"),
                 "stdout metrics differ from the run record")
    if seed == DEFAULT_SEED:
        compare_reference(p, 0, _train_large_reference(work), reference("train-large"))
    return p.items


def _train_large_reference(work: Path) -> dict:
    return {"run": _outcome(_read_jsonl(work / "train.jsonl")[0])}


# ---------------------------------------------------------------------------
# cli-pipeline: the README walk-through, six processes
# ---------------------------------------------------------------------------

CLASSES = ("cat", "dog")


def _pipeline_commands(work: Path, seed: int) -> list[Command]:
    f = {name: str(work / name) for name in (
        "desc.json", "emb.json", "bank.json", "world.json", "run.jsonl",
        "probe.npz", "metrics.json")}
    sets = _seed_sets(seed)
    return [
        Command(("gen-descriptions", "--classes", ",".join(CLASSES),
                 "--out", f["desc.json"]), (f["desc.json"],)),
        Command(("encode", "--descriptions", f["desc.json"], "--encoder", "toy",
                 "--out", f["emb.json"]), (f["emb.json"],)),
        Command(("build-bank", "--descriptions", f["desc.json"], "--encoder", "fixture",
                 "--embeddings", f["emb.json"], "--aggregator", "similarity-weighted",
                 "--out", f["bank.json"]), (f["bank.json"],)),
        Command(("simulate", *sets, "--out", f["world.json"]), (f["world.json"],)),
        Command(("train", *sets, "--out", f["run.jsonl"], "--save-probe", f["probe.npz"]),
                (f["run.jsonl"], f["probe.npz"])),
        Command(("evaluate", *sets, "--probe", f["probe.npz"], "--out", f["metrics.json"]),
                (f["metrics.json"],)),
    ]


def _pipeline_check(work: Path, seed: int, stdouts: list[str]):
    from semproto.prototypes import PrototypeBank

    p = Problems()
    names = ("gen-descriptions", "encode", "build-bank", "simulate", "train", "evaluate")
    for idx, name in enumerate(names):
        _check_stdout(p, idx, stdouts[idx], name)
    echo = _expected_echo(seed)

    desc = _read_json(work / "desc.json")
    p.expect(0, sorted(desc) == list(CLASSES), f"description classes {sorted(desc)}")
    for name, rec in desc.items():
        p.expect(0, len(rec["states"]) == 5 and len(rec["scenes"]) == 5 and rec["generic"],
                 f"description set for {name} has the wrong shape")

    emb = _read_json(work / "emb.json")
    n_texts = len({t for rec in desc.values()
                   for t in (rec["generic"], *rec["states"], *rec["scenes"])})
    p.expect(1, len(emb["records"]) == n_texts,
             f"{len(emb['records'])} embeddings for {n_texts} texts")
    p.expect(1, all(len(r["vector"]) == emb["dim"] for r in emb["records"]), "embedding width")
    p.expect(1, not _non_finite(emb), "non-finite embedding")

    bank = PrototypeBank.load(str(work / "bank.json"))
    p.expect(2, bank.vocab == CLASSES, f"bank vocab {bank.vocab}")
    p.expect(2, bank.dim == emb["dim"], f"bank dim {bank.dim} != {emb['dim']}")

    world = _read_json(work / "world.json")
    p.expect(3, world.get("sizes") == {"train_det": 200, "train_weak": 160, "test": 4800},
             f"world sizes {world.get('sizes')}")
    _check_echo(p, 3, world.get("config", {}), echo)

    records = _read_jsonl(work / "run.jsonl")
    if p.expect(4, len(records) == 1, f"{len(records)} run records"):
        _check_run_record(p, 4, records[0], echo, steps=300)
    p.expect(4, (work / "probe.npz").is_file(), "probe file missing")

    metrics = _read_json(work / "metrics.json")
    _check_echo(p, 5, metrics.get("config", {}), echo)
    p.expect(5, records and metrics.get("metrics") == records[0].get("metrics"),
             "evaluate --probe metrics differ from train metrics")
    if seed == DEFAULT_SEED:
        ref = reference("cli-pipeline")
        got = _pipeline_reference(work)
        compare_reference(p, 3, got, {"feature_sha256": ref["feature_sha256"]})
        compare_reference(p, 4, got, {"run": ref["run"]})
    return p.items


def _pipeline_reference(work: Path) -> dict:
    return {
        "feature_sha256": _read_json(work / "world.json")["feature_sha256"],
        "run": _outcome(_read_jsonl(work / "run.jsonl")[0]),
    }


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("ablate-components", _ablate_commands, _ablate_check, _ablate_reference),
        Workload("train-large", _train_large_commands, _train_large_check,
                 _train_large_reference),
        Workload("cli-pipeline", _pipeline_commands, _pipeline_check, _pipeline_reference),
    )
}
