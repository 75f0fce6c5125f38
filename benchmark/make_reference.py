"""Write reference.json: the output of every base op of every workload.

    python3 benchmark/make_reference.py

Runs each op once on the base (unrelabelled) inputs and stores the
modulus (``explicit``, ``paths``) or ``exact_sup`` / ``output_c_min``
(``plans``); an op that raises is stored as null, and later runs then
check it by its certificates alone.  Made once, on the commit that
introduced the benchmark, so later runs compare against that program.
"""

import json
import sys
from pathlib import Path

import run

sys.path[:0] = [str(run.SRC), str(run.BENCH_DIR)]

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for workload in run.WORKLOADS:
        for op in workloads.build_ops(workload, None, None):
            try:
                out = op.run()
            except Exception as exc:  # recorded as "no reference"
                print(f"{op.key}: {type(exc).__name__}: {exc}", flush=True)
                reference[op.key] = None
                continue
            reference[op.key] = workloads.reference_value(op.key, out)
            print(f"{op.key}: {reference[op.key]!r}", flush=True)
    Path(workloads.REFERENCE_FILE).write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
