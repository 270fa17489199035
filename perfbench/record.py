"""Record the expected outputs of one study per seed into expected.json.

    python3 perfbench/record.py --scale full --seeds 0-63 [--workload NAME ...]

Run it only at a commit whose outputs are known to be right. Every later
run of the benchmark on a recorded seed compares each study with these
values: the combined digest of the integer and token-order outputs
exactly, the float report fields within the tolerance in workloads.py.
Outputs of seeded training are not recorded; they are compared only
within a run, so a change of float summation order in the trainer does
not count as a wrong result.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def record_one(workload: str, seed: int, scale: str, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = json.loads(json.dumps(workloads.generate(workload, seed, scale, work)))
    results = workloads.run_study(workload, work, plan, scale)
    rec = workloads.check_study(workload, work, plan, scale, results)
    if rec.problems:
        raise SystemExit(f"{workload} seed {seed}: {rec.problems}")
    return {"digest": run.combined_digest(rec.exact), "floats": rec.floats}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--seeds", default="0-63", help="first-last, inclusive")
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    store = json.loads(run.EXPECTED.read_text(encoding="utf-8")) if run.EXPECTED.is_file() else {}
    work = run.OUT / "record-work"
    try:
        for workload in args.workload or sorted(workloads.WORKLOADS):
            entries = store.setdefault(args.scale, {}).setdefault(workload, {})
            for seed in range(first, last + 1):
                entries[str(seed)] = record_one(workload, seed, args.scale, work)
                print(f"{workload} seed {seed}: {entries[str(seed)]['digest'][:12]}", flush=True)
            run.EXPECTED.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
