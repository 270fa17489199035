"""Write one workload's seeded inputs and its plan.json.

    python3 perfbench/gen.py WORKLOAD SEED SCALE OUTDIR

run.py starts this as a child process, so that input generation (the
synthetic language's V x V transition matrix above all) does not count
towards the peak memory of the process that runs the studies.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv: list[str]) -> None:
    workload, seed, scale, out = argv
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    plan = workloads.generate(workload, int(seed), scale, out)
    (out / "plan.json").write_text(json.dumps(plan), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
