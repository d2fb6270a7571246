"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 12 --trace 0

Run from the repository root. The run starts SETUP_SAMPLES fresh worker
processes; each imports dppmle from ``src/``, builds the workload's inputs
from the seed, warms up and reports ready, and the median time from spawn
to ready is ``setup_s``. The last worker then runs the timed passes and
checks their outputs. With ``--trace 0`` the run prints every end-to-end
metric of BENCHMARK.json; with ``--trace 1`` it prints every per-layer
metric instead, from a traced run. The last line of stdout is the JSON
result; a record with provenance and, for traced runs, the span file go
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 3
#: Every process of a run is killed once this many seconds have passed.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    """dppmle from src/, BLAS and OpenMP threads capped at the usable cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), cores)) if current.isdigit() and int(current) > 0 else str(cores)
    return env


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, float, str]:
    """Start a worker; return (seconds to READY, its import_s, rest of stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or not ready.startswith("READY "):
        raise RunFailed(f"worker exited with code {code}")
    return ready_s, float(ready.split()[1]), rest


def measure(args, spec: dict) -> tuple[dict, dict]:
    """Run the workload; return (metrics, record)."""
    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = Path(tempfile.mkdtemp(dir=scratch))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--work-dir", str(work_dir)]
    try:
        samples = [spawn([*common, "--setup-only"], env, deadline)[:2]
                   for _ in range(SETUP_SAMPLES - 1)]
        spans = ["--spans-out", str(out_dir / f"{stem}-spans.jsonl")] if args.trace else []
        ready_s, import_s, rest = spawn([*common, *spans], env, deadline)
        samples.append((ready_s, import_s))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    outcome = json.loads(rest.strip().splitlines()[-1])

    attempted, failed, dropped = outcome["attempted"], outcome["failed"], outcome["dropped"]
    # pass times scaled to the machine's usual speed by the run's mean reference (worker.main);
    # set-up is mostly imports and does not track the reference loop
    raw_wall_s = statistics.median(outcome["pass_s"])
    wall_s = statistics.median(outcome["scaled_pass_s"])
    values = {
        "setup_s": statistics.median(s for s, _ in samples),
        "wall_s": wall_s,
        "units_per_s": (attempted - failed) / wall_s,
        "ok_frac": (attempted - failed) / attempted,
        "kept_frac": (attempted - dropped) / attempted,
        "peak_rss_mb": outcome["peak_rss_mb"],
        "error_frac": failed / attempted,
        "dropped_frac": dropped / attempted,
        "setup.import_s": statistics.median(i for _, i in samples),
        "raw_wall_s": raw_wall_s,
        "speed": wall_s / raw_wall_s,
    }
    if args.trace:
        trace_wall = statistics.median(outcome["trace_pass_s"])
        values.update(outcome["layers"])
        values["trace.wall_s"] = trace_wall
        values["trace.overhead_s"] = trace_wall - raw_wall_s
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "values": values, "setup_samples": samples,
        **{k: outcome[k] for k in outcome if k not in ("layers",)},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return metrics, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dppmle" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no dppmle sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        metrics, record = measure(args, spec)
    except (RunFailed, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for problem in record["problems"]:
        print(f"# problem {problem}")
    for defect in record["known_defects"]:
        print(f"# known defect {defect}")
    print(f"# attempted {record['attempted']} failed {record['failed']} dropped {record['dropped']}"
          f" error_frac {record['values']['error_frac']:.6g}"
          f" dropped_frac {record['values']['dropped_frac']:.6g}"
          f" passes {len(record['pass_s'])}")
    print(f"# measured wall_s {record['values']['raw_wall_s']:.6g},"
          f" scaled by machine speed {record['values']['speed']:.4f}")
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
