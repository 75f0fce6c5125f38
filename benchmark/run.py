"""modcap benchmark: one seeded workload per run, every output checked.

    python3 benchmark/run.py --workload modulus --seed 1 --seconds 25 --trace 0

The workloads (``modulus``, ``plans``) are described in ``workloads.py``.
A run is a closed loop with one client: it builds the inputs from
``--seed``, then runs whole rounds of the workload's ops (every op once
per round, in seed order) until ``--seconds`` have passed, so every run
holds the same mix of ops; a round that outlasts ``--seconds`` still
completes (a ``modulus`` round takes over a minute, a ``plans`` round
about 13 s).  An op's latency is its wall time.  Each op's output is
checked outside its timed region; an op fails when it raises
(``SolverError`` or any other exception) or when a check or the stored
reference rejects it.

The metric names and units are read from ``BENCHMARK.json`` at the root
of the checkout.  With ``--trace 0`` the run reports its end-to-end
metrics:

* ``certified_per_s`` [1/s]: ops that pass every check over the sum of
  all op latencies (failed ops count in the time);
* ``op_p50_s`` [s]: median op latency, failures included;
* ``certified_frac`` [ratio]: 1 - fail_frac, with fail_frac the share of
  attempted ops that failed (also given as ``failed`` / ``attempted``);
* ``setup_s`` [s]: median over several set-ups (import modcap, build the
  inputs, load them through instance_to_dict / instance_from_dict), the
  first in this process and the rest in fresh interpreters;
* ``peak_rss_mb`` [MB]: ``ru_maxrss`` of this process.

It also prints fail_frac and ``op_tail_s``, the latency at the highest of
p99.9/p99/p95/p90/p75 with at least ten ops beyond it (omitted when
the run has too few ops).

With ``--trace 1`` the run sets up once under the tracer, then runs one
round in which every op runs once traced and, if it did not fail, once
untraced, and reports per-layer metrics ``<module>.<function>.<stat>``
from the traced runs plus ``trace.overhead_frac`` (median over the
paired ops of traced over untraced time, minus one).  Spans go to
``benchmark/out/<workload>-seed<n>.trace.ndjson``.

BLAS is pinned to one thread.  The last line of standard output is the
JSON result; a full record (environment, per-op latencies and failures)
goes to ``benchmark/out/``.  The exit code is non-zero only for a
harness error, never for failed ops.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SPEC_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ("modulus", "plans")
SETUP_SAMPLES = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


class HarnessError(Exception):
    """The benchmark itself cannot run (as opposed to a failed op)."""


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    try:
        spec = json.loads(SPEC_FILE.read_text())
        return {m["name"]: m["unit"] for m in spec[kind]}
    except (OSError, ValueError, KeyError) as exc:
        raise HarnessError(f"cannot read {kind} metrics from {SPEC_FILE}: {exc}") from exc


def select(values: dict[str, float], units: dict[str, str]) -> dict[str, float]:
    """The listed metrics out of the measured ones; a missing one is an error."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise HarnessError(f"no measurement for metrics {missing}")
    return {name: values[name] for name in units}


def setup(workload: str, seed: int):
    """Import modcap, build and load the inputs; return (ops, seconds)."""
    t0 = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        raise HarnessError(f"cannot import modcap from {SRC}: {exc}") from exc
    import modcap

    origin = Path(modcap.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise HarnessError(f"modcap was imported from {origin}, not from {SRC}")
    ops = workloads.build_ops(workload, seed, workloads.load_reference())
    return ops, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise HarnessError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(ops, tracer=None) -> list[dict]:
    """Run every op once; time it, then check its output untimed."""
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.key
            tracer.active = True
        failure = out = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # any exception is a failed op, not a harness error
            failure = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        wrong = False
        if failure is None:
            try:
                failure = op.check(out)
            except Exception as exc:  # an output the checks cannot verify
                failure = f"check raised {type(exc).__name__}: {exc}"
            wrong = failure is not None
        records.append({"op": op.key, "seconds": seconds, "failure": failure,
                        "wrong": wrong})
    return records


def tail_latency(latencies: list[float]):
    """(percentile, latency) at the highest ladder step with ten ops beyond it."""
    n = len(latencies)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return pct, cuts[int(round(pct * 10)) - 1]
    return None


def end_to_end(records: list[dict], setup_samples: list[float]) -> dict[str, float]:
    latencies = [r["seconds"] for r in records]
    certified = sum(r["failure"] is None for r in records)
    return {
        "certified_per_s": certified / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "certified_frac": certified / len(records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def environment(seed: int) -> dict:
    import numpy

    try:
        blas_cfg = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas_cfg['name']} {blas_cfg['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def traced_run(workload: str, seed: int, units: dict[str, str]):
    """Setup and one round under the tracer, each op paired with an untraced run."""
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = "setup"
    tracer.active = True
    ops = workloads.build_ops(workload, seed, workloads.load_reference())
    tracer.active = False
    tracer.remove()
    # Each op runs traced, then untraced right after, so both runs of a
    # pair mostly see the same machine state.  An op that failed traced
    # gets no untraced twin: the paths stall alone runs for most of a
    # minute, and running it twice would take the run past its time limit.
    untraced: list[dict] = []
    traced: list[dict] = []
    pairs: list[tuple[float, float]] = []
    for op in ops:
        tracer.install()
        traced += run_round([op], tracer)
        tracer.remove()
        if traced[-1]["failure"] is None:
            untraced += run_round([op])
            pairs.append((untraced[-1]["seconds"], traced[-1]["seconds"]))
    layer = tracer.metrics()
    layer["duality.certify.self_s"] = (
        layer["duality.check_duality.self_s"]
        + layer["duality.check_optimality_conditions.self_s"]
    )
    layer["trace.overhead_frac"] = statistics.median(t / u for u, t in pairs) - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_ndjson(OUT_DIR / f"{workload}-seed{seed}.trace.ndjson")
    return untraced + traced, select(layer, units)


def timed_run(workload: str, seed: int, seconds: float, units: dict[str, str],
              ops, first_setup: float):
    samples = [first_setup]
    samples += [probe_setup(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    records: list[dict] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        records += run_round(ops)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    metrics = select(end_to_end(records, samples), units)
    fails = len(records) - sum(r["failure"] is None for r in records)
    print(f"rounds: {rounds}  ops: {len(records)}  measured: "
          f"{time.perf_counter() - start:.1f} s  setup samples: "
          f"{', '.join(f'{s:.3f}' for s in samples)} s")
    print(f"fail_frac: {fails / len(records):.6f} ({fails} of {len(records)} ops)")
    tail = tail_latency([r["seconds"] for r in records])
    if tail is None:
        need = round(TAIL_MIN_BEYOND / (1.0 - TAIL_LADDER[-1] / 100.0))
        print(f"op_tail_s: omitted ({len(records)} ops; p{TAIL_LADDER[-1]:g} needs {need})")
    else:
        print(f"op_tail_s: {tail[1]:.6f} s (p{tail[0]:g} of {len(records)} ops)")
    return records, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="modcap benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        ops, first_setup = setup(args.workload, args.seed)
        if args.setup_probe:
            print(repr(first_setup))
            return 0
        env = environment(args.seed)
        print("environment: " + json.dumps(env, sort_keys=True))
        if args.trace:
            records, metrics = traced_run(args.workload, args.seed, units)
        else:
            records, metrics = timed_run(
                args.workload, args.seed, args.seconds, units, ops, first_setup
            )
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for rec in records:
        if rec["failure"] is not None:
            print(f"failed op {rec['op']} ({rec['seconds']:.3f} s): {rec['failure'][:200]}")
    for name, value in metrics.items():
        print(f"{args.workload} {name}: {value!r} {units[name]}")
    OUT_DIR.mkdir(exist_ok=True)
    record_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(
        {"workload": args.workload, "environment": env, "metrics": metrics,
         "ops": records}, indent=1,
    ) + "\n")
    result = {
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": sum(r["failure"] is not None for r in records),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
