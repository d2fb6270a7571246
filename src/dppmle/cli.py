"""Command-line harness for sampling, estimation, and verification runs.

Subcommands: ``sample``, ``estimate``, ``experiment``, ``berry-esseen``,
``verify``. All randomness flows from explicit seeds; there is no ambient
entropy, so identical invocations write identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .asymptotics import berry_esseen_experiment
from .closed_form import TwoByTwoParams
from .errors import ConfigError, DppError, EigenvalueOutOfRange, NotSymmetric
from .kernels import (
    ENSEMBLE,
    kernel_to_text,
    load_kernel,
    sign_distance,
    validate_kernel,
)
from .sampling import (
    SAMPLERS,
    SEED_LIMIT,
    SPECTRAL,
    batch_to_csv,
    load_batch,
    sample_batch,
    save_batch,
)
from .verify import FULL, QUICK, run_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _parse_inline_kernel(text: str) -> np.ndarray:
    """Rows separated by ';', entries by spaces or commas: '1 1; 1 2'."""
    rows = [row for row in text.split(";") if row.strip()]
    return np.array([[float(x) for x in row.replace(",", " ").split()] for row in rows])


def _parsed(what: str, parse, text):
    """parse(text); a ValueError, a TypeError or a failed kernel check is bad input, a ConfigError."""
    try:
        return parse(text)
    except (TypeError, ValueError, NotSymmetric, EigenvalueOutOfRange) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _check_seeds(seed) -> None:
    """ConfigError unless every --seed value is a Philox key, 0 <= seed < 2**128."""
    for value in seed if isinstance(seed, list) else [seed]:
        if value is not None and not 0 <= value < SEED_LIMIT:
            raise ConfigError(f"--seed must be in [0, 2**128), not {value}")


def _resolve_kernel(spec: str):
    if not spec.strip():
        # Path("") is the working directory, which would be read as a kernel file.
        raise ConfigError("empty kernel")
    path = Path(spec)
    if path.exists():
        return _parsed(f"kernel file {spec}", load_kernel, path)
    return _parsed(f"kernel {spec!r}", lambda t: validate_kernel(_parse_inline_kernel(t), ENSEMBLE), spec)


def _kernel_on(spec: str, flag: str, n_ground: int):
    """The kernel of ``spec``; a ConfigError unless it is n_ground x n_ground."""
    kernel = _resolve_kernel(spec)
    if kernel.n != n_ground:
        raise ConfigError(f"{flag} is {kernel.n}x{kernel.n} but the batch has {n_ground} items")
    return kernel


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise ConfigError("--n must be at least 1")
    kernel = _resolve_kernel(args.kernel)
    batch = sample_batch(kernel, args.n, args.seed, args.sampler)
    if args.out:
        save_batch(batch, args.out)
    else:
        sys.stdout.write(batch_to_csv(batch))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    batch = _parsed(f"batch {args.batch}", load_batch, args.batch)
    blocks = _parsed("--blocks", json.loads, args.blocks) if args.blocks else None
    experiments.check_method(args.method, batch.n_ground, args.iters, args.eta, blocks)
    truth = _kernel_on(args.kernel, "--kernel", batch.n_ground) if args.kernel is not None else None
    initial = _kernel_on(args.l0, "--l0", batch.n_ground).entries if args.l0 is not None else None
    entries, status, _ = experiments.estimate(
        args.method, batch, initial, args.iters, args.eta, args.seed, blocks
    )
    report = {"method": args.method, "status": status, "n": len(batch)}
    if truth is not None:
        report["distance"] = sign_distance(entries, truth)[0]
    text = kernel_to_text(entries)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return EXIT_OK


#: (flag, args attribute, config key) of each experiment flag that overrides a
#: config field. A preset fixes its own grid, so it refuses --config and these.
_OVERRIDES = (
    ("--kernel", "kernel", "kernel"),
    ("--method", "method", "method"),
    ("--n", "n", "sample_sizes"),
    ("--iters", "iters", "iterations"),
    ("--eta", "eta", "eta"),
)


def _cmd_experiment(args) -> int:
    seeds = tuple(args.seed) if args.seed else (0,)
    if args.preset:
        refused = [flag for flag, attr, _ in (("--config", "config", None), *_OVERRIDES)
                   if getattr(args, attr) is not None]
        if refused:
            raise ConfigError(f"--preset fixes its own grid; drop {' '.join(refused)}")
        configs = experiments.preset_configs(args.preset, seeds=seeds)
    else:
        raw = {}
        if args.config:
            raw = _parsed(f"config {args.config}", json.loads, Path(args.config).read_text(encoding="utf-8"))
            if not isinstance(raw, dict):
                raise ConfigError(f"config {args.config} must be a JSON object, not {type(raw).__name__}")
        for _, attr, key in _OVERRIDES:
            value = getattr(args, attr)
            if value is not None:
                raw[key] = _resolve_kernel(value).entries.tolist() if key == "kernel" else value
        if args.seed:
            raw["seeds"] = args.seed
        configs = [_parsed("config", experiments.config_from_dict, raw)]
    results = [experiments.run_experiment(config) for config in configs]
    out_dir = args.out or next(
        (c.output_dir for c in configs if c.output_dir), "experiment-out"
    )
    runs_path, summary_path = experiments.write_results(results, out_dir)
    sys.stdout.write(f"wrote {runs_path} and {summary_path}\n")
    return EXIT_OK


def _cmd_berry_esseen(args) -> int:
    if args.reps < 1:
        raise ConfigError("--reps must be at least 1")
    if min(args.sizes) < 1:
        raise ConfigError("--sizes must be at least 1")
    if args.sizes != sorted(args.sizes):
        raise ConfigError("--sizes must be ascending")
    params = _parsed("--a/--b/--c", lambda abc: TwoByTwoParams(*abc), (args.a, args.b, args.c))
    report = berry_esseen_experiment(params, args.sizes, args.reps, args.seed)
    text = report.to_csv()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_checks(args.level, seed=args.seed)
    all_ok = True
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        sys.stdout.write(f"[{tag}] {result.name}: {result.detail}\n")
        all_ok = all_ok and result.passed
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dppmle",
        description="Estimation experiments for finite determinantal point processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a batch of subsets from a kernel")
    p.add_argument("--kernel", required=True, help="kernel file or inline rows '1 1; 1 2'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampler", choices=list(SAMPLERS), default=SPECTRAL)
    p.add_argument("--out", help="batch CSV destination (stdout when omitted)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="estimate a kernel from a batch CSV")
    p.add_argument("--batch", required=True)
    p.add_argument("--method", choices=list(experiments.METHODS), default=experiments.NEWTON)
    p.add_argument("--kernel", help="true kernel, for the orbit-distance report")
    p.add_argument("--l0", help="initial kernel for the iterative solvers")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", help='JSON pair list for method=block, e.g. "[[0,1],[2,3]]"')
    p.add_argument("--out", help="estimate destination (stdout when omitted)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a sampling+estimation grid")
    p.add_argument("--preset", choices=["table1", "twobytwo"])
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--kernel", help="override: kernel file or inline rows")
    p.add_argument("--method", choices=list(experiments.METHODS))
    p.add_argument("--n", type=int, nargs="+", help="sample sizes")
    p.add_argument("--seed", type=int, nargs="+", help="seeds")
    p.add_argument("--iters", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--out", help="output directory (default: config output_dir or experiment-out)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("berry-esseen", help="normal-approximation error by sample size")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--sizes", type=int, nargs="+", default=[100, 400, 1600, 6400])
    p.add_argument("--reps", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_berry_esseen)

    p = sub.add_parser("verify", help="run the oracle cross-check suites")
    p.add_argument("--level", choices=[QUICK, FULL], default=QUICK)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_seeds(args.seed)
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO
    except (DppError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
