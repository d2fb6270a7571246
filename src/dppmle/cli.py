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
from .closed_form import (
    BlockStructure,
    TwoByTwoParams,
    mle_2x2,
    mle_block,
    moments_kernel,
)
from .errors import ConfigError, DppError
from .kernels import (
    ENSEMBLE,
    kernel_to_text,
    load_kernel,
    sign_distance,
    validate_kernel,
)
from .likelihood import LikelihoodContext, empirical_distribution
from .optimize import newton_raphson, sgd
from .sampling import (
    ENUMERATION,
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
    """parse(text); a ValueError or TypeError there is bad input, reported as a ConfigError."""
    try:
        return parse(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _resolve_kernel(spec: str):
    path = Path(spec)
    if path.exists():
        return _parsed(f"kernel file {spec}", load_kernel, path)
    return _parsed(f"kernel {spec!r}", lambda t: validate_kernel(_parse_inline_kernel(t), ENSEMBLE), spec)


def _cmd_sample(args) -> int:
    kernel = _resolve_kernel(args.kernel)
    batch = sample_batch(kernel, args.n, args.seed, args.sampler)
    if args.out:
        save_batch(batch, args.out)
    else:
        sys.stdout.write(batch_to_csv(batch))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    batch = _parsed(f"batch {args.batch}", load_batch, args.batch)
    table = empirical_distribution(batch)
    status = "ok"
    if args.method == experiments.NEWTON:
        initial = _resolve_kernel(args.l0).entries if args.l0 else np.eye(batch.n_ground)
        estimate, trace = newton_raphson(
            LikelihoodContext(table), initial, max_iter=args.iters
        )
        entries, status = estimate.entries, trace.status
    elif args.method == experiments.SGD:
        initial = _resolve_kernel(args.l0).entries if args.l0 else np.eye(batch.n_ground)
        estimate, trace = sgd(batch, initial, eta=args.eta, iters=args.iters, seed=args.seed)
        entries, status = estimate.entries, trace.status
    elif args.method == experiments.CLOSED_2X2:
        params, status = mle_2x2(table)
        entries = params.matrix()
    elif args.method == experiments.BLOCK:
        structure = _parsed("--blocks", lambda t: BlockStructure(tuple(tuple(b) for b in json.loads(t))),
                            args.blocks)
        entries = _parsed("--blocks", lambda blocks: mle_block(batch, blocks), structure).entries
    else:
        entries = moments_kernel(table).entries
    report = {"method": args.method, "status": status, "n": len(batch)}
    if args.kernel:
        truth = _resolve_kernel(args.kernel)
        report["distance"] = sign_distance(entries, truth)[0]
    text = kernel_to_text(entries)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    seeds = tuple(args.seed) if args.seed else (0,)
    if args.preset:
        configs = experiments.preset_configs(args.preset, seeds=seeds)
    else:
        raw = {}
        if args.config:
            raw = _parsed(f"config {args.config}", json.loads, Path(args.config).read_text(encoding="utf-8"))
        if args.kernel:
            raw["kernel"] = _resolve_kernel(args.kernel).entries.tolist()
        if args.method:
            raw["method"] = args.method
        if args.n:
            raw["sample_sizes"] = args.n
        if args.seed:
            raw["seeds"] = args.seed
        if args.iters is not None:
            raw["iterations"] = args.iters
        if args.eta is not None:
            raw["eta"] = args.eta
        configs = [_parsed("config", experiments.config_from_dict, raw)]
    results = [experiments.run_experiment(config) for config in configs]
    out_dir = args.out or next(
        (c.output_dir for c in configs if c.output_dir), "experiment-out"
    )
    runs_path, summary_path = experiments.write_results(results, out_dir)
    sys.stdout.write(f"wrote {runs_path} and {summary_path}\n")
    return EXIT_OK


def _cmd_berry_esseen(args) -> int:
    params = TwoByTwoParams(args.a, args.b, args.c)
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
    p.add_argument("--sampler", choices=[SPECTRAL, ENUMERATION], default=SPECTRAL)
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
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO
    except DppError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
