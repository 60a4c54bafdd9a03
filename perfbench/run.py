"""Benchmark driver for semproto.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

One client runs the workload's CLI commands as a closed loop: a pass is
the workload's command sequence, the next pass starts when the last one
ends, and passes start until S seconds have elapsed (the pass in flight
completes). The seed becomes `--set world.seed=N mod 2**32` on every
command that takes a config; 77 is the calibrated default world, where
outputs are also compared with reference.json.

--trace 0  every command is a fresh `python -m semproto` process, as users
           run it. Reports wall_s (median pass), setup_s (median cold
           `semproto --version`) and peak_rss_mb (largest child peak RSS
           of a pass, median over passes).
--trace 1  the same commands run in this process through cli.main(argv),
           alternating passes with and without span wrappers around the
           package's layers; reports the per-layer metrics of
           BENCHMARK.json (medians over traced passes), the tracing
           overhead and span coverage.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it is the full result (environment block, quartiles,
pass counts, problems), which --out also appends to FILE as JSON lines
for compare.py.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
from envinfo import environment, nproc  # noqa: E402
from spans import Tracer, layer_metrics, median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7  # cold `--version` starts per run; setup_s is their median
IMPORT_SAMPLES = 5  # cold `import semproto.cli` per traced run
CHILD_TIMEOUT_S = 150


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, env, cwd: Path, stdout_path: Path):
    """Run one fresh Python process; returns (exit code, its own rusage).

    Its stdout goes to stdout_path and its stderr beside it.
    """
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".stderr"), "wb") as err:
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                env=env, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def fresh_work_dir(workload: str) -> Path:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def judge(workload, work: Path, seed: int, codes: list[int], stdouts: list[str]):
    """Indices of failed commands and the reasons."""
    problems = [(i, f"exit code {c}") for i, c in enumerate(codes) if c != 0]
    try:
        problems += workload.check(work, seed, stdouts)
    except Exception as exc:  # a check that cannot read an output fails its command
        problems.append((len(codes) - 1, f"output check raised {exc!r}"))
    return {i for i, _ in problems}, [f"command {i}: {msg}" for i, msg in problems]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, n_commands: int, failed: set, problems: list[str]):
        self.attempted += n_commands
        self.failed += len(failed)
        self.problems += problems[: max(0, 20 - len(self.problems))]


# ---------------------------------------------------------------------------
# end-to-end: fresh processes, tracing off
# ---------------------------------------------------------------------------

def measure_setup(env) -> list[float]:
    samples = []
    out = WORK / "version.stdout"
    for i in range(SETUP_SAMPLES + 1):  # the first start warms the bytecode cache
        t0 = time.perf_counter()
        code, _ = spawn(["-m", "semproto", "--version"], env, WORK, out)
        elapsed = time.perf_counter() - t0
        if code != 0 or not out.read_text().strip():
            raise RuntimeError(f"`semproto --version` exited {code}")
        if i:
            samples.append(elapsed)
    return samples


def process_pass(workload, seed: int, env, tally: Tally) -> tuple[float, float]:
    """One pass as fresh processes; returns (wall_s, largest peak RSS MB)."""
    work = fresh_work_dir(workload.name)
    commands = workload.commands(work, seed)
    rss_kb = []
    codes = []
    t0 = time.perf_counter()
    for i, cmd in enumerate(commands):
        code, usage = spawn(["-m", "semproto", *cmd.argv], env, work, work / f"{i}.stdout")
        codes.append(code)
        rss_kb.append(usage.ru_maxrss)  # KiB on Linux
    wall = time.perf_counter() - t0
    stdouts = [(work / f"{i}.stdout").read_text() for i in range(len(commands))]
    tally.add(len(commands), *judge(workload, work, seed, codes, stdouts))
    return wall, max(rss_kb) / 1024.0


def end_to_end(workload, seed: int, seconds: float):
    env = child_env()
    tally = Tally()
    setup = measure_setup(env)
    walls, rss = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, peak = process_pass(workload, seed, env, tally)
        walls.append(wall)
        rss.append(peak)
    values = {"wall_s": quartiles(walls), "setup_s": quartiles(setup),
              "peak_rss_mb": quartiles(rss)}
    detail = {"end_to_end": values, "fail_frac": tally.failed / tally.attempted}
    return {k: v["median"] for k, v in values.items()}, detail, tally


# ---------------------------------------------------------------------------
# traced: in-process through cli.main(argv)
# ---------------------------------------------------------------------------

def measure_import(env) -> list[float]:
    code = ("import time; t = time.perf_counter(); import semproto.cli; "
            "print(time.perf_counter() - t)")
    out = WORK / "import.stdout"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        rc, _ = spawn(["-c", code], env, WORK, out)
        if rc != 0:
            raise RuntimeError(f"`import semproto.cli` exited {rc}")
        samples.append(float(out.read_text()))
    return samples


def in_process_pass(cli, workload, seed: int, tally: Tally, tracer=None, pass_no=0):
    """One pass through cli.main; returns (wall_s, bytes written to stdout and files)."""
    work = fresh_work_dir(workload.name)
    commands = workload.commands(work, seed)
    codes, stdouts = [], []
    t0 = time.perf_counter()
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.request = (pass_no, i)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an unmapped error: the process would exit 1
            traceback.print_exc()
            code = 1
        codes.append(code)
        stdouts.append(buf.getvalue())
    wall = time.perf_counter() - t0
    out_bytes = sum(len(s.encode()) for s in stdouts) + sum(
        os.path.getsize(f) for cmd in commands for f in cmd.outputs if os.path.exists(f))
    tally.add(len(commands), *judge(workload, work, seed, codes, stdouts))
    return wall, out_bytes


def traced(workload, seed: int, seconds: float):
    import semproto.cli as cli

    tally = Tally()
    import_s = measure_import(child_env())
    tracer = Tracer()
    per_pass, traced_walls, plain_walls = [], [], []
    start = time.perf_counter()
    i = 0
    while not (traced_walls and plain_walls) or time.perf_counter() - start < seconds:
        # traced, plain, plain, traced, ...: warm-up and drift fall on both sides
        if i % 4 in (0, 3):
            first = len(tracer.spans)
            with tracer.installed():
                wall, out_bytes = in_process_pass(cli, workload, seed, tally, tracer,
                                                  pass_no=len(traced_walls))
            traced_walls.append(wall)
            metrics = layer_metrics(tracer.spans[first:], wall)
            metrics["cli.out_bytes"] = out_bytes
            per_pass.append(metrics)
        else:
            plain_walls.append(in_process_pass(cli, workload, seed, tally)[0])
        i += 1

    values = median_metrics(per_pass)
    values["cli.import_s"] = statistics.median(import_s)
    values["trace.wall_s"] = statistics.median(traced_walls)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(plain_walls)
    spans_file = WORK / workload.name / "spans.jsonl"
    with open(spans_file, "w", encoding="utf-8") as fh:
        for rec in tracer.to_records():
            fh.write(json.dumps(rec) + "\n")
    detail = {
        "traced_wall_s": quartiles(traced_walls),
        "untraced_wall_s": quartiles(plain_walls),
        "import_s": quartiles(import_s),
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "fail_frac": tally.failed / tally.attempted,
    }
    return values, detail, tally


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=77)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="append the full result to this JSONL file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semproto" / "cli.py").is_file():
        print(f"perfbench: no semproto sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Cap BLAS threads at the CPUs this process may use, for the children too.
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc())
    sys.path.insert(0, str(SRC))
    import semproto

    if Path(semproto.__file__).resolve().parent != (SRC / "semproto").resolve():
        print(f"perfbench: imported semproto from {semproto.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    world_seed = args.seed % 2**32  # numpy seeds must be non-negative
    WORK.mkdir(exist_ok=True)
    run = traced if args.trace else end_to_end
    values, detail, tally = run(workload, world_seed, args.seconds)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in wanted} != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    full = {"workload": workload.name, "seed": args.seed, "world_seed": world_seed,
            "trace": args.trace, "seconds": args.seconds,
            "env": environment(ROOT, args.seed),
            **detail, "problems": tally.problems, **result}
    print(json.dumps(full))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(full) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
