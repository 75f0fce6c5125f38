"""Steadiness check: two sets of runs of the same code against the bounds.

    python3 benchmark/steady.py --runs 10

Runs ``run.py --trace 0`` on every workload with seeds 1..runs (set A),
then again with seeds runs+1..2*runs (set B).  For each workload and
end-to-end metric of BENCHMARK.json it prints both medians, each set's
spread (distance between the first and third quartile of
``statistics.quantiles(values, n=4)`` as a share of the median) and the
change of the median from A to B in the metric's worse direction.  The
sets agree when each spread and the change stay within the metric's
bound.  Every run lasts ``run_seconds`` of BENCHMARK.json.  Exits 1 when
some metric disagrees, 2 on a harness error.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """The result of one run and its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs not correct\n{proc.stdout}")
    return result, time.perf_counter() - t0


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worsening(first: float, second: float, better: str) -> float:
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    values: dict = {}
    try:
        for s in range(2):
            for workload in names:
                for i in range(args.runs):
                    seed = s * args.runs + i + 1
                    res, wall = run_once(workload, seed, seconds)
                    got = res["metrics"]
                    if set(got) != {m["name"] for m in metrics}:
                        raise RuntimeError(f"metrics {sorted(got)} differ from BENCHMARK.json")
                    for m in metrics:
                        values.setdefault((workload, m["name"], s), []).append(
                            got[m["name"]]["value"]
                        )
                    print(f"set {'AB'[s]} {workload} seed {seed}: "
                          + ", ".join(f"{k}={v['value']:.6g}" for k, v in got.items())
                          + f" ({wall:.0f} s)", flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 2

    agree = True
    report = []
    print(f"\n{'workload':9} {'metric':16} {'median A':>12} {'spread A':>9} "
          f"{'median B':>12} {'spread B':>9} {'worse':>7} {'bound':>6}  verdict")
    for workload in names:
        for m in metrics:
            sets = [values[(workload, m["name"], s)] for s in range(2)]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worse = worsening(meds[0], meds[1], m["better"])
            ok = worse <= m["bound"] and all(sp <= m["bound"] for sp in spreads)
            steady = all(sp < m["bound"] / 3 for sp in spreads)
            agree &= ok
            verdict = ("agree" if ok else "DISAGREE") + ("" if steady else " (spread >= bound/3)")
            print(f"{workload:9} {m['name']:16} {meds[0]:12.6g} {spreads[0]:9.4f} "
                  f"{meds[1]:12.6g} {spreads[1]:9.4f} {worse:7.4f} {m['bound']:6.3f}  {verdict}")
            report.append({"workload": workload, "metric": m["name"], "medians": meds,
                           "spreads": spreads, "worsening": worse, "bound": m["bound"],
                           "agree": ok, "values": sets})
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
