"""The CLI contract as one command: ``python tests/contract.py OUT_DIR``.

Makes the checks of :func:`check` and prints one ``sha256  path`` line per output, sorted. Digests depend
on the BLAS build, so compare two lists only from one machine. The name keeps pytest from collecting it.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
       "PYTHONWARNINGS": "error::RuntimeWarning,error::DeprecationWarning"}
PY = [sys.executable, "-c"]
K4, L0 = "1 1 0 0; 1 2 0 0; 0 0 0.5 0.3; 0 0 0.3 1.5", "1 0.5 0 0; 0.5 2 0 0; 0 0 0.5 0.1; 0 0 0.1 1.5"
SAMPLE10 = ("sample", "--kernel", "kernel10.txt", "--n", 5000, "--seed", 71, "--sampler", "spectral")
ENSEMBLE = "import numpy as np; from dppmle.verify_support import random_irreducible_ensemble as ensemble\n"
KERNELS = ENSEMBLE + ("from dppmle.kernels import save_kernel\n"
                      "save_kernel(ensemble(10, np.random.default_rng(0)), 'kernel10.txt')\n"
                      "save_kernel(ensemble(20, np.random.default_rng(20)), 'kernel20.txt')")
RESAVE = "import sys, dppmle.sampling as s; s.save_batch(s.load_batch(sys.argv[1]), sys.argv[2])"
BLOCK30 = ("import json, numpy as np; print(json.dumps({'kernel_id': 'block30', "
           "'kernel': np.kron(np.eye(15), [[1, 0.5], [0.5, 2]]).tolist(), 'method': 'block', "
           "'blocks': [[2 * k, 2 * k + 1] for k in range(15)], 'sampler': 'spectral', 'sample_sizes': [2000]}))")
# CltResult on the two kernels of perfbench's clt-newton workload at table seeds 0-3; tolist keeps every bit
CLT = ENSEMBLE + ("from dppmle.asymptotics import clt_experiment\n"
                  "for k, seed in [(k, s) for k in (0, 1) for s in range(4)]:\n"
                  "    r = clt_experiment(ensemble(5, np.random.default_rng(k)), 30000, 80, seed)\n"
                  "    print(k, seed, r.covariance.tolist(), r.mean.tolist(), r.failures)")


def cli(*args):
    return [sys.executable, "-m", "dppmle.cli", *map(str, args)]


# (file that keeps stdout, or None; argv), run in order in the run's directory
CONTRACT = [
    *[(f"verify-{seed}.txt", cli("verify", "--level", "full", "--seed", seed)) for seed in range(5)],
    # the largest seed: checks 1-6 run at the wrapped seeds 0-5
    ("verify-wrap.txt", cli("verify", "--level", "quick", "--seed", 2**128 - 1)),
    (None, cli("experiment", "--preset", "table1", "--seed", 0, "--out", "table1")),
    (None, cli("experiment", "--preset", "table1", "--seed", *range(5), "--out", "table1-seeds")),
    (None, cli("experiment", "--preset", "twobytwo", "--out", "twobytwo")),
    (None, cli("berry-esseen", "--out", "rate.csv")),
    (None, cli("berry-esseen", "--a", 0.5, "--b", 0.3, "--c", 1.5, "--sizes", 200, 800, "--reps", 20000,
               "--out", "rate-wide.csv")),
    # one or two draws never fill the 2x2 table: no cell has a distance, so the medians are null
    (None, cli("experiment", "--kernel", "1 1; 1 2", "--method", "closed2x2", "--n", 1, 2, "--seed", 0, 1,
               "--out", "degenerate")),
    (None, cli("sample", "--kernel", K4, "--n", 20000, "--seed", 0, "--out", "batch4.csv")),
    # --kernel prints the sign-orbit distance to the truth, here a pattern of two components
    *[(f"{method}.txt", cli("estimate", "--batch", "batch4.csv", "--method", method, "--blocks", "[[0,1],[2,3]]",
                            "--kernel", K4)) for method in ("block", "moments", "newton", "sgd")],
    # --l0's size is checked by the library's method rules, after the CLI parses it
    *[(f"{method}-l0.txt", cli("estimate", "--batch", "batch4.csv", "--method", method, "--l0", L0))
      for method in ("newton", "sgd")],
    # from I and from the --l0 above Newton ends diverged; from the truth it converges
    ("newton-truth.txt", cli("estimate", "--batch", "batch4.csv", "--method", "newton", "--l0", K4)),
    (None, cli("sample", "--kernel", "1 1; 1 2", "--n", 20000, "--seed", 0, "--out", "batch2.csv")),
    ("closed2x2.txt", cli("estimate", "--batch", "batch2.csv", "--method", "closed2x2")),
    (None, [*PY, KERNELS]),
    (None, cli(*SAMPLE10, "--out", "batch10.csv")),
    # from n = 8 on, a pick's normalizer is a sum whose rounding depends on the order of its adds
    (None, cli("sample", "--kernel", "kernel20.txt", "--n", 20000, "--seed", 20, "--sampler", "spectral",
               "--out", "batch20.csv")),
    ("batch10-stdout.csv", cli(*SAMPLE10)),
    # a dense 10-item pair, one component of 512 sign classes: moments needs an empty draw,
    # which this batch lacks, and Newton or SGD from I keeps a diagonal estimate
    ("sgd10.txt", cli("estimate", "--batch", "batch10.csv", "--method", "sgd", "--l0", "kernel10.txt",
                      "--kernel", "kernel10.txt")),
    *[(None, [*PY, RESAVE, name, f"resaved-{name}"]) for name in ("batch4.csv", "batch2.csv", "batch10.csv")],
    (None, cli("sample", "--kernel", "1 1; 1 2", "--n", 200, "--seed", 0, "--out", "b.csv")),
    # the block method has no dense limit, so its distance must not scan 2^29 sign classes
    ("block30.json", [*PY, BLOCK30]),
    (None, cli("experiment", "--config", "block30.json", "--out", "block30")),
    ("clt.txt", [*PY, CLT]),
]
# sample prints to stdout the bytes it writes with --out, and a batch reloaded and saved again is the same file
SAME_BYTES = [("batch10.csv", "batch10-stdout.csv"),
              *[(name, f"resaved-{name}") for name in ("batch4.csv", "batch2.csv", "batch10.csv")]]
BAD_INPUTS = [
    # counts above 2**53 and a kernel whose eigenvalue overflows float64 used to end in numpy tracebacks
    cli("sample", "--kernel", "1 1; 1 2", "--n", 2**60),
    cli("berry-esseen", "--sizes", 10**20, "--reps", 5),
    cli("experiment", "--kernel", "1 1; 1 2", "--method", "closed2x2", "--n", 10**20, "--out", "big"),
    cli("estimate", "--batch", "b.csv", "--method", "sgd", "--iters", 10**20),
    cli("sample", "--kernel", "1e308 1e308; 1e308 1e308", "--n", 3),
    # b <= 0 is one rule, berry_esseen_experiment's; the CLI only parses --b
    cli("berry-esseen", "--a", 0, "--b", 0, "--c", 1),
    cli("berry-esseen", "--b", -1),
]


def run(argv, cwd):
    """Exit code (None on timeout), stdout bytes and stderr text of one fresh process."""
    try:
        done = subprocess.run(argv, cwd=cwd, env=ENV, capture_output=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None, b"", "timed out after 120 s"
    return done.returncode, done.stdout, done.stderr.decode(errors="replace")


def check(out: Path) -> list[str]:
    """Run CONTRACT twice, into out/a and out/b, print the digests of out/a and return the failed checks.

    Each invocation is a fresh process under ENV, this checkout's ``src`` first, and exits 0 within 120 s.
    Both runs write the same files byte for byte, every ``summary.json`` is strict JSON, each pair of
    SAME_BYTES is one file, and each of BAD_INPUTS ends in exit 2 with one ``config error:`` line and no traceback.
    """
    fails, files = [], {}
    for side in "ab":
        cwd = out / side
        cwd.mkdir(parents=True)
        for stdout, argv in CONTRACT:
            code, text, err = run(argv, cwd)
            if code != 0:
                fails.append(f"{side}: {shlex.join(argv[1:])} exited {code}: {err.strip()[-200:]!r}")
            if stdout:
                (cwd / stdout).write_bytes(text)
        files[side] = {path.relative_to(cwd).as_posix(): path.read_bytes()
                       for path in sorted(cwd.rglob("*")) if path.is_file()}
    a, b = files["a"], files["b"]
    fails += [f"{name}: the two runs differ" for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]
    for name in sorted(name for name in a if name.endswith("summary.json")):
        try:
            json.loads(a[name], parse_constant=lambda constant: fails.append(f"{name} holds {constant}"))
        except ValueError as exc:
            fails.append(f"{name} is not JSON: {exc}")
    fails += [f"{name} and {copy} differ" for name, copy in SAME_BYTES if a.get(name, b"") != a.get(copy)]
    for argv in BAD_INPUTS:
        code, _, err = run(argv, out / "a")
        if code != 2 or err.count("\n") != 1 or not err.startswith("config error:") or "Traceback" in err:
            fails.append(f"{shlex.join(argv[1:])} exited {code}, not one config error line: {err.strip()[-200:]!r}")
    for name, data in sorted(a.items()):
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    return fails


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/contract.py OUT_DIR")
    failures = check(Path(sys.argv[1]))
    sys.stderr.writelines(f"FAIL {failure}\n" for failure in failures)
    sys.exit(1 if failures else 0)
