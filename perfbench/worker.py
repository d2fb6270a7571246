"""One benchmark process: set up one workload, run its timed passes, check them.

Started by ``run.py``, once per setup sample and once for the measured
run, so set-up time includes the interpreter start and the import, and
peak memory belongs to this workload alone. The protocol on stdout is a
``READY <import_s>`` line when the inputs are ready, then (unless
``--setup-only``) one JSON line with the run's outcome.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from run import THREAD_VARS


#: Iterations of the reference loop; one run of it takes about 8 ms.
REF_LOOPS = 500
#: The reference loop's time at the machine's usual speed.
REF_NOMINAL_S = 0.008


def reference_s() -> float:
    """Median of five runs of a fixed loop of tiny LAPACK calls and arithmetic.

    The loop does the kind of work dppmle's hot paths do, so its time tracks
    how fast the machine runs at the moment. On a shared host that drifts
    by more than the benchmark's bounds within a minute.
    """
    import numpy as np

    matrix = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.8]])
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(REF_LOOPS):
            acc += np.linalg.slogdet(matrix)[1] + float(np.linalg.inv(matrix)[0, 0])
            for j in range(50):
                acc += j * 0.5
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_passes(workload, seconds: float, base_dir: Path) -> tuple[list[float], list, list[float], list]:
    """Repeat whole passes until ``seconds`` of timed work; at least one.

    Returns the measured pass times, each pass's step times, the reference
    times and each pass's evaluated groups. The reference loop runs before
    the first step and after every step, outside the timed steps, so the
    references sample the machine's speed all through the run.
    """
    times, step_times, refs, evaluations = [], [], [reference_s()], []
    while not times or sum(times) < seconds:
        pass_dir = Path(tempfile.mkdtemp(dir=base_dir))
        try:
            gc.collect()
            raw, elapsed = [], []
            for step in workload.steps(pass_dir):
                start = time.perf_counter()
                raw.append(step())
                elapsed.append(time.perf_counter() - start)
                refs.append(reference_s())
            times.append(sum(elapsed))
            step_times.append(elapsed)
            evaluations.append(workload.evaluate(pass_dir, raw))
        finally:
            shutil.rmtree(pass_dir)
    return times, step_times, refs, evaluations


def tally(evaluations: list[list]) -> dict:
    """Units attempted, failed and dropped, from the groups of every pass.

    A group fails when it reports a problem on any pass or when its
    fingerprint differs between passes over the same inputs.
    """
    first = {g.key: g for g in evaluations[0]}
    failed_keys = {g.key for groups in evaluations for g in groups if g.problem}
    failed_keys |= {
        g.key for groups in evaluations[1:] for g in groups
        if g.key not in first or g.fingerprint != first[g.key].fingerprint
    }
    problems = sorted({
        f"{g.key}: {g.problem or 'output differs between passes'}"
        for groups in evaluations for g in groups if g.key in failed_keys
    })
    return {
        "attempted": sum(g.units for g in first.values()),
        "failed": sum(g.units for key, g in first.items() if key in failed_keys),
        "dropped": sum(g.dropped for g in first.values()),
        "problems": problems[:20],
        "known_defects": sorted({f"{g.key}: {g.note}" for g in first.values() if g.note}),
    }


def _git_revision(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(root: Path) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "git_revision": _git_revision(root),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import dppmle.cli  # noqa: F401  (the import is part of set-up)

    import_s = time.perf_counter() - start
    from tracer import Tracer
    from workloads import WORKLOADS

    work_dir = Path(tempfile.mkdtemp(dir=args.work_dir))
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    workload.warm_up(work_dir)
    print(f"READY {import_s!r}", flush=True)
    if args.setup_only:
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    pass_s, step_s, refs, evaluations = run_passes(workload, seconds, work_dir)
    # One speed factor for the whole run. The host switches between a fast
    # and a slow phase (references of about 7.5 and 12 ms) many times a
    # second, so a single reference reads one phase; the mean over the run
    # weighs the phases as the passes met them.
    speed = REF_NOMINAL_S / statistics.fmean(refs)
    outcome = {"import_s": import_s, "pass_s": pass_s, "step_s": step_s, "refs": refs,
               "scaled_pass_s": [t * speed for t in pass_s]}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            trace_s, _, _, trace_evaluations = run_passes(workload, seconds, work_dir)
        finally:
            tracer.uninstall()
        # traced passes must reproduce the untraced outputs exactly
        evaluations += trace_evaluations
        outcome["trace_pass_s"] = trace_s
        outcome["layers"] = tracer.layer_metrics(len(trace_s))
        outcome["functions"] = tracer.function_table()
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    outcome.update(tally(evaluations))
    outcome["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome["provenance"] = provenance(Path.cwd())
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
