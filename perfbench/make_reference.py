"""Write reference.json: the values one pass of each workload produces
at the default seed, which later runs at that seed must reproduce.

    python3 perfbench/make_reference.py

Run it only when a change to the program's numbers is intended and
documented.
"""

import json
import sys

import run
from workloads import DEFAULT_SEED, REFERENCE_FILE, WORKLOADS


def main() -> int:
    env = run.child_env()
    run.WORK.mkdir(exist_ok=True)
    reference = {}
    for name, workload in WORKLOADS.items():
        work = run.fresh_work_dir(name)
        for i, cmd in enumerate(workload.commands(work, DEFAULT_SEED)):
            code, _ = run.spawn(["-m", "semproto", *cmd.argv], env, work,
                                work / f"{i}.stdout")
            if code != 0:
                raise RuntimeError(f"{name}: command {i} exited {code}")
        reference[name] = workload.reference_values(work)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
