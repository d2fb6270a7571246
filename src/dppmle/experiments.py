"""Reproducible estimation experiments: sample, estimate, report.

A config names one true kernel, one estimation method, and grids of
sample sizes and seeds. Running it produces one CSV row per (n, seed)
cell plus a JSON summary of per-n median orbit distances. Diverged or
degenerate cells are recorded in the status column, never fatal.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from statistics import median

import numpy as np

from .closed_form import BlockStructure, mle_2x2, mle_block, moments_estimator
from .errors import ConfigError, DegenerateTable, DppError
from .kernels import ENSEMBLE, KernelMatrix, load_kernel, sign_distance, validate_kernel
from .likelihood import LikelihoodContext, empirical_distribution
from .optimize import newton_raphson, sgd
from .sampling import ENUMERATION, SEED_LIMIT, SPECTRAL, sample_batch

NEWTON = "newton"
SGD = "sgd"
CLOSED_2X2 = "closed2x2"
BLOCK = "block"
MOMENTS = "moments"
METHODS = (NEWTON, SGD, CLOSED_2X2, BLOCK, MOMENTS)

RUNS_HEADER = "kernel,n,seed,method,iterations,status,distance,estimate"


@dataclass(frozen=True)
class ExperimentConfig:
    """One estimation request, checked and normalized on construction; a violation is a ConfigError."""

    kernel_id: str = "kernel"
    kernel: np.ndarray | None = None
    method: str = NEWTON
    sample_sizes: tuple[int, ...] = ()
    seeds: tuple[int, ...] = (0,)
    iterations: int = 100
    eta: float = 0.1
    sampler: str = ENUMERATION
    initial: np.ndarray | None = None
    blocks: tuple[tuple[int, int], ...] | None = None
    output_dir: str | None = None

    def __post_init__(self):
        # A kernel_id with a control character would end a runs.csv row early.
        if not isinstance(self.kernel_id, str) or not self.kernel_id.isprintable():
            raise ConfigError(f"kernel_id must be a printable string, not {self.kernel_id!r}")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, not {self.output_dir!r}")
        if self.kernel is None:
            raise ConfigError("config needs 'kernel' (inline rows) or 'kernel_file'")
        kernel = _ensemble("kernel", self.kernel)
        sample_sizes = tuple(_integer("sample_sizes", n) for n in self.sample_sizes)
        if not sample_sizes:
            raise ConfigError("sample_sizes must be nonempty")
        if any(n < 1 for n in sample_sizes):
            raise ConfigError("sample sizes must be positive")
        seeds = tuple(_integer("seeds", s) for s in self.seeds)
        if not seeds:
            raise ConfigError("seeds must be nonempty")
        if not all(0 <= seed < SEED_LIMIT for seed in seeds):
            raise ConfigError("seeds must be in [0, 2**128)")
        initial = None if self.initial is None else _ensemble("initial", self.initial).entries
        if initial is not None and initial.shape != (kernel.n, kernel.n):
            raise ConfigError(f"initial must be {kernel.n}x{kernel.n} like the kernel")
        if self.sampler not in (ENUMERATION, SPECTRAL):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        iterations = _integer("iterations", self.iterations)
        eta = _real("eta", self.eta)
        blocks = None if self.blocks is None else _pairs("blocks", self.blocks)
        check_method(self.method, kernel.n, iterations, eta, blocks)
        normalized = dict(kernel=kernel.entries, sample_sizes=sample_sizes, seeds=seeds,
                          iterations=iterations, eta=eta, initial=initial, blocks=blocks)
        for name, value in normalized.items():
            object.__setattr__(self, name, value)


def _ensemble(key: str, value) -> KernelMatrix:
    """``value`` as a finite, symmetric, PSD ensemble kernel; a ConfigError otherwise."""
    try:
        return validate_kernel(value, ENSEMBLE)
    # A JSON integer beyond the float range overflows.
    except (TypeError, ValueError, OverflowError, DppError) as exc:
        raise ConfigError(f"invalid {key}: {exc}") from exc


def _pairs(key: str, value) -> tuple[tuple[int, int], ...]:
    """``value`` as a tuple of integer pairs; a ConfigError otherwise."""
    try:
        pairs = [tuple(pair) for pair in value]
    except TypeError:
        pairs = None
    if pairs is None or any(len(pair) != 2 for pair in pairs):
        raise ConfigError(f"{key}: {value!r} is not a list of index pairs")
    return tuple((_integer(key, u), _integer(key, v)) for u, v in pairs)


def _integer(key: str, value) -> int:
    """``value`` if it is an integer and not a bool; a ConfigError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{key}: {value!r} is not an integer")
    return int(value)


def _real(key: str, value) -> float:
    """``value`` as a float if it is a real number, not a bool, within the float range; a ConfigError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{key}: {value!r} is not a real number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def check_method(method: str, n_ground: int, iterations: int, eta: float, blocks) -> None:
    """ConfigError unless ``method`` can estimate a kernel on ``n_ground`` items.

    Every method needs at least one item, at least one iteration and a
    positive finite eta; closed2x2 needs 2 items, and block a pair
    partition ``blocks`` of the items. Configs and ``dppmle estimate``
    share these rules.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r} (choose from {METHODS})")
    if n_ground < 1:
        raise ConfigError(f"estimation needs at least one item, not {n_ground}")
    if iterations < 1:
        raise ConfigError("iterations must be positive")
    if not (np.isfinite(eta) and eta > 0):
        raise ConfigError(f"eta must be a positive finite number, not {eta!r}")
    if method == CLOSED_2X2 and n_ground != 2:
        raise ConfigError(f"closed2x2 requires 2 items, not {n_ground}")
    if method == BLOCK:
        if blocks is None:
            raise ConfigError("block method requires a declared block structure")
        try:
            structure = BlockStructure(blocks)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid blocks: {exc}") from exc
        if structure.n != n_ground:
            raise ConfigError(f"block structure covers {structure.n} items, not {n_ground}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from parsed JSON; unknown keys are rejected and ``kernel_file`` is read."""
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)} - {"kernel_file"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    raw = dict(raw)
    if "kernel_file" in raw:
        path = raw.pop("kernel_file")
        # open() takes an int as a file descriptor: 0 would read stdin.
        if not isinstance(path, str):
            raise ConfigError(f"kernel_file must be a string, not {path!r}")
        raw["kernel"] = load_kernel(path).entries
    return ExperimentConfig(**raw)


@dataclass
class RunRow:
    kernel_id: str
    n: int
    seed: int
    method: str
    iterations: int
    status: str
    distance: float
    estimate: np.ndarray

    def fields(self) -> list[str]:
        """The runs.csv fields, in RUNS_HEADER order."""
        flat = ";".join(repr(float(x)) for x in self.estimate.reshape(-1))
        return [self.kernel_id, str(self.n), str(self.seed), self.method,
                str(self.iterations), self.status, repr(self.distance), flat]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[RunRow] = field(default_factory=list)

    @property
    def summary(self) -> dict:
        per_n: dict[str, float] = {}
        for n in self.config.sample_sizes:
            distances = [r.distance for r in self.rows if r.n == n and np.isfinite(r.distance)]
            per_n[str(n)] = median(distances) if distances else float("nan")
        return {
            "kernel": self.config.kernel_id,
            "method": self.config.method,
            "median_distance": per_n,
        }


def estimate(method: str, batch, initial=None, iterations: int = 100, eta: float = 0.1,
             seed: int = 0, blocks=None) -> tuple[np.ndarray, str, int]:
    """Estimate a kernel from a batch with one of METHODS: (entries, status, iterations).

    ``initial`` (identity when None), ``iterations`` and ``eta`` drive the
    iterative solvers, ``seed`` picks SGD's draws, and ``blocks`` is the
    pair partition of ``block``. The status is the solver's trace status,
    the closed form's tag, or ``ok``; the iteration count is the Newton
    steps taken, SGD's budget, or 0. DegenerateTable propagates; an
    unknown method is a ValueError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (choose from {METHODS})")
    if initial is None:
        initial = np.eye(batch.n_ground)
    # SGD and block read the masks; the others read the empirical table.
    if method == SGD:
        kernel, trace = sgd(batch, initial, eta=eta, iters=iterations, seed=seed)
        return kernel.entries, trace.status, iterations
    if method == BLOCK:
        return mle_block(batch, BlockStructure(blocks)).entries, "ok", 0
    table = empirical_distribution(batch)
    if method == NEWTON:
        kernel, trace = newton_raphson(LikelihoodContext(table), initial, max_iter=iterations)
        return kernel.entries, trace.status, max(len(trace.iterates) - 1, 0)
    if method == CLOSED_2X2:
        params, tag = mle_2x2(table)
        return params.matrix(), tag, 0
    diag, magnitudes = moments_estimator(table)
    return np.diag(diag) + magnitudes, "ok", 0


def _estimate_cell(config: ExperimentConfig, truth: KernelMatrix, n: int, seed: int) -> RunRow:
    batch = sample_batch(truth, n, seed, config.sampler)
    try:
        entries, status, iterations = estimate(
            config.method, batch, config.initial, config.iterations, config.eta, seed, config.blocks
        )
    except DegenerateTable as exc:
        return RunRow(config.kernel_id, n, seed, config.method, 0, f"degenerate:{exc}",
                      float("nan"), np.full((truth.n, truth.n), np.nan))
    distance, _ = sign_distance(entries, truth)
    return RunRow(config.kernel_id, n, seed, config.method, iterations, status, distance, entries)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (n, seed) cell of a config."""
    truth = KernelMatrix(config.kernel, ENSEMBLE)
    result = ExperimentResult(config)
    for n in config.sample_sizes:
        for seed in config.seeds:
            result.rows.append(_estimate_cell(config, truth, n, seed))
    return result


def write_results(results: list[ExperimentResult], out_dir) -> tuple[Path, Path]:
    """Write runs.csv and summary.json; rows sorted deterministically.

    A runs.csv field holding a comma, a quote or a line break is quoted.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [row for result in results for row in result.rows]
    rows.sort(key=lambda r: (r.kernel_id, r.method, r.n, r.seed))
    runs_path = out / "runs.csv"
    with open(runs_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(RUNS_HEADER + "\n")
        csv.writer(fh, lineterminator="\n").writerows(row.fields() for row in rows)
    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump([result.summary for result in results], fh, indent=2, sort_keys=True)
        fh.write("\n")
    return runs_path, summary_path


# ---------------------------------------------------------------------------
# Builtin presets
# ---------------------------------------------------------------------------

TRIDIAGONAL_3 = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.3], [0.0, 0.3, 3.0]])
TRIDIAGONAL_3_START = np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.1], [0.0, 0.1, 1.0]])
DIAGONAL_3 = np.diag([7.0, 5.0, 9.0])
DENSE_2 = np.array([[1.0, 1.0], [1.0, 2.0]])
DENSE_2_START = np.array([[0.5, 0.1], [0.1, 0.5]])


def preset_configs(name: str, seeds=(0,)) -> list[ExperimentConfig]:
    """Builtin experiment grids.

    ``table1``: the three benchmark kernels, Newton for 100 iterations and
    SGD for 60000 iterations at sample size 30000.
    ``twobytwo``: closed-form estimation of the dense 2x2 kernel at sample
    sizes 300, 3000, 10000, 30000.
    """
    seeds = tuple(int(s) for s in seeds)
    if name == "table1":
        cells = [
            ("tridiagonal3x3", TRIDIAGONAL_3, TRIDIAGONAL_3_START),
            ("diagonal3x3", DIAGONAL_3, np.eye(3)),
            ("dense2x2", DENSE_2, DENSE_2_START),
        ]
        configs = []
        for kernel_id, kernel, start in cells:
            configs.append(ExperimentConfig(
                kernel_id, kernel, NEWTON, (30_000,), seeds,
                iterations=100, initial=start,
            ))
            configs.append(ExperimentConfig(
                kernel_id, kernel, SGD, (30_000,), seeds,
                iterations=60_000, eta=0.1, initial=start,
            ))
        return configs
    if name == "twobytwo":
        return [ExperimentConfig(
            "dense2x2", DENSE_2, CLOSED_2X2, (300, 3000, 10_000, 30_000), seeds,
        )]
    raise ConfigError(f"unknown preset {name!r} (available: table1, twobytwo)")
