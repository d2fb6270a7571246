"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, splits one *pass*
(the timed work) into steps that call the public API or the CLI, and
evaluates the list of the steps' results into groups of units. A group carries its unit count, how
many of them the program itself dropped (diverged, singular, max_iter,
degenerate, or a CLT failure), a problem string when the units raised or
failed their correctness check, a fingerprint of the outputs, which
must repeat exactly on every pass of the same inputs, and a note for a
known defect of the program that the check does not count as a failure.

The checks hold whatever the RNG stream or float summation order: they
compare against exact oracles within statistical bounds, not against
stored outputs.

Timed workload code reaches dppmle functions through module attributes
(``asymptotics.clt_experiment``), never through names bound at import, so
the tracer's wrappers see every call. The checks call the few functions
they need through names bound at import, which the tracer leaves alone,
so the per-layer counts hold the pass's own work only.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dppmle import asymptotics, cli, experiments, kernels, sampling
from dppmle.kernels import validate_kernel
from dppmle.sampling import sample_batch
from dppmle.verify_support import random_irreducible_ensemble

#: Statuses with which the program reports a unit it did not complete.
#: ``max_iter`` drops only Newton cells: SGD has no convergence test, so
#: max_iter is how every SGD run that does not diverge ends.
DROPPED_STATUSES = ("diverged", "singular")


@dataclass(frozen=True)
class Group:
    key: str
    units: int
    dropped: int
    problem: str | None
    fingerprint: str
    note: str | None = None


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the dppmle CLI in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _is_dropped(method: str, status: str) -> bool:
    return (status in DROPPED_STATUSES or status.startswith("degenerate")
            or (method == experiments.NEWTON and status == "max_iter"))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_runs(path: Path) -> dict[str, list[str]]:
    """runs.csv rows keyed by kernel/method/n/seed."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != experiments.RUNS_HEADER:
        raise ValueError(f"{path.name}: unexpected header")
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        rows["/".join(fields[i] for i in (0, 3, 1, 2))] = fields
    return rows


def _sign_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between a and b modulo sign conjugation D b D."""
    n = a.shape[0]
    best = math.inf
    for mask in range(1 << max(n - 1, 0)):
        signs = np.array([1.0] + [-1.0 if mask >> i & 1 else 1.0 for i in range(n - 1)])
        best = min(best, float(np.linalg.norm(a - b * np.outer(signs, signs))))
    return best


def _likelihood_gradient(entries: np.ndarray, probs: np.ndarray) -> np.ndarray | None:
    """Gradient of the scaled log-likelihood at ``entries`` for subset frequencies ``probs``.

    sum_J p(J) pad(L_J^{-1}) - (L + I)^{-1}; None when a supported principal
    minor is not positive definite, i.e. ``entries`` is outside the domain.
    """
    n = entries.shape[0]
    grad = -np.linalg.inv(entries + np.eye(n))
    for mask in np.nonzero(probs)[0]:
        idx = [i for i in range(n) if mask >> i & 1]
        if not idx:
            continue
        minor = entries[np.ix_(idx, idx)]
        if np.linalg.eigvalsh(minor)[0] <= 0.0:
            return None
        grad[np.ix_(idx, idx)] += probs[mask] * np.linalg.inv(minor)
    return grad


class Table1:
    """``dppmle experiment --preset table1`` at the workload seed and at fixed anchor seeds.

    One preset run takes 4 to 9 s depending on where its SGD cells
    diverge (CV 27 % over 23 seeds), so a pass time driven by the workload
    seed alone spreads past any bound. A pass therefore runs the preset at
    ANCHOR_SEEDS and at the workload seed, one CLI call and one step per
    preset seed, and only one preset run in six varies with the workload
    seed.

    The check holds every row to what the program claims for it, not to a
    distance bound: Newton without safeguards may stop at any critical
    point, and on the ill-conditioned ``tridiagonal3x3`` likelihood the
    maximizer itself lies more than 1.0 from the truth on some seeds.
    """

    ANCHOR_SEEDS = (0, 1, 2, 3, 4)
    #: Gradient norm a converged Newton cell must show when recomputed from
    #: its regenerated sample (the solver stops at 1e-8).
    GRAD_TOL = 1e-6
    #: Relative gap allowed between the distance column and its recomputation.
    DISTANCE_RTOL = 1e-9

    def __init__(self, seed: int, work_dir: Path):
        self.seeds = sorted({*self.ANCHOR_SEEDS, seed})
        configs = experiments.preset_configs("table1", seeds=self.seeds)
        self.configs = {c.kernel_id: c for c in configs}
        self.expected = [
            f"{c.kernel_id}/{c.method}/{n}/{s}"
            for c in configs for n in c.sample_sizes for s in c.seeds
        ]
        self._frequencies: dict[tuple[str, int, int], np.ndarray] = {}

    def warm_up(self, work_dir: Path) -> None:
        for method in (experiments.NEWTON, experiments.SGD):
            _run_cli(["experiment", "--kernel", "1 1; 1 2", "--method", method, "--n", 300,
                      "--iters", 200, "--out", work_dir / f"warm-{method}"])

    def steps(self, pass_dir: Path) -> list:
        return [
            functools.partial(_run_cli, ["experiment", "--preset", "table1", "--seed", seed,
                                         "--out", pass_dir / f"seed{seed}"])
            for seed in self.seeds
        ]

    def _frequencies_of(self, kernel_id: str, n: int, seed: int) -> np.ndarray:
        """Subset frequencies of the cell's sample, drawn again as the experiment draws it."""
        key = (kernel_id, n, seed)
        if key not in self._frequencies:
            config = self.configs[kernel_id]
            truth = validate_kernel(config.kernel, kernels.ENSEMBLE)
            masks = sample_batch(truth, n, seed, config.sampler).masks
            self._frequencies[key] = np.bincount(masks, minlength=1 << truth.n) / n
        return self._frequencies[key]

    def _check_row(self, fields: list[str]) -> str | None:
        kernel_id, n, seed, method, status = fields[0], int(fields[1]), int(fields[2]), fields[3], fields[5]
        if status.startswith("degenerate"):
            return None
        truth = np.asarray(self.configs[kernel_id].kernel, dtype=float)
        estimate = np.array([float(x) for x in fields[7].split(";")])
        if estimate.size != truth.size or not np.all(np.isfinite(estimate)):
            return "estimate is not a finite kernel"
        estimate = estimate.reshape(truth.shape)
        if not np.array_equal(estimate, estimate.T):
            return "estimate is not symmetric"
        distance, expected = float(fields[6]), _sign_distance(estimate, truth)
        if not abs(distance - expected) <= self.DISTANCE_RTOL * max(expected, 1.0):
            return f"distance column {distance!r}, recomputed {expected!r}"
        if method == experiments.NEWTON and status == "converged":
            grad = _likelihood_gradient(estimate, self._frequencies_of(kernel_id, n, seed))
            if grad is None:
                return "converged Newton estimate outside the likelihood's domain"
            norm = float(np.linalg.norm(grad))
            if not norm <= self.GRAD_TOL:
                return f"converged Newton estimate has gradient norm {norm:.3g}"
        return None

    def evaluate(self, pass_dir: Path, raw) -> list[Group]:
        rows, exits = {}, {}
        for seed, (code, _) in zip(self.seeds, raw):
            if code == 0:
                rows.update(_read_runs(pass_dir / f"seed{seed}" / "runs.csv"))
            else:
                exits[seed] = code
        groups = []
        for key in self.expected:
            fields = rows.get(key)
            if fields is None:
                seed = int(key.rsplit("/", 1)[1])
                problem = f"experiment exited {exits[seed]}" if seed in exits else "missing from runs.csv"
                groups.append(Group(key, 1, 0, problem, ""))
                continue
            groups.append(Group(key, 1, int(_is_dropped(fields[3], fields[5])),
                                self._check_row(fields), ",".join(fields)))
        return groups


class CltNewton:
    """``asymptotics.clt_experiment`` on n = 5 kernels, against asymptotic_covariance.

    The kernels are fixed (generator seeds KERNEL_SEEDS); the workload seed
    drives the sampled tables. Across generator seeds 0-7 the cost per
    replication ranges 15-38 ms and the dropped share 8-28 %, so a kernel
    drawn from the workload seed would swamp any change under test.
    """

    KERNEL_SEEDS = (0, 1)
    SIZE = 5
    SAMPLE_SIZE = 30_000
    REPS = 80
    #: Loose band of the test suite's Newton-route smoke test.
    BAND = 1.0

    def __init__(self, seed: int, work_dir: Path):
        self.kernels = [
            random_irreducible_ensemble(self.SIZE, np.random.default_rng(k))
            for k in self.KERNEL_SEEDS
        ]
        count = len(self.KERNEL_SEEDS)
        self.table_seeds = [seed * count + j for j in range(count)]

    def warm_up(self, work_dir: Path) -> None:
        asymptotics.clt_experiment(self.kernels[0], self.SAMPLE_SIZE, 2, self.table_seeds[0])

    def _replicate(self, kernel, table_seed: int):
        try:
            result = asymptotics.clt_experiment(kernel, self.SAMPLE_SIZE, self.REPS, table_seed)
            return result, asymptotics.asymptotic_covariance(kernel)
        except Exception as exc:  # recorded as failed units
            return exc

    def steps(self, pass_dir: Path) -> list:
        return [functools.partial(self._replicate, kernel, table_seed)
                for kernel, table_seed in zip(self.kernels, self.table_seeds)]

    def evaluate(self, pass_dir: Path, raw) -> list[Group]:
        groups = []
        for kernel_seed, entry in zip(self.KERNEL_SEEDS, raw):
            key = f"kernel{kernel_seed}"
            if isinstance(entry, Exception):
                groups.append(Group(key, self.REPS, 0, f"raised {entry!r}", ""))
                continue
            result, theory = entry
            problem = None
            if result.reps != self.REPS or result.degenerate:
                problem = f"{result.failures} of {result.reps} replications failed"
            else:
                scale = max(float(np.abs(theory).max()), 1.0)
                gap = float(np.max(np.abs(result.covariance - theory)))
                if not gap <= self.BAND * scale:
                    problem = f"covariance off by {gap:.3g} (band {self.BAND * scale:.3g})"
            fingerprint = _digest(result.covariance.tobytes() + result.mean.tobytes()) \
                + f"/{result.failures}"
            groups.append(Group(key, self.REPS, result.failures, problem, fingerprint))
        return groups


class SpectralSample:
    """``dppmle sample --sampler spectral`` of a fixed n = 10 kernel, reloaded and checked.

    The kernel is fixed (generator seed KERNEL_SEED): across generator seeds
    0-7 the cost per draw ranges 0.4-0.8 ms. The workload seed is the
    sampler seed.
    """

    KERNEL_SEED = 0
    SIZE = 10
    DRAWS = 5000
    #: z-bound on every inclusion-frequency and mean-cardinality check
    #: (56 checks; a false alarm has probability about 3e-5).
    Z_BOUND = 5.0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        truth = random_irreducible_ensemble(self.SIZE, np.random.default_rng(self.KERNEL_SEED))
        self.kernel_path = work_dir / "kernel.txt"
        kernels.save_kernel(truth, self.kernel_path)
        kernel = kernels.load_kernel(self.kernel_path)
        marginal = kernels.marginal_of(kernel).entries
        self.item_probs = np.diag(marginal).copy()
        self.pair_probs = marginal.diagonal()[:, None] * marginal.diagonal()[None, :] - marginal**2
        self.mean_size = float(np.trace(marginal))
        eigs = np.linalg.eigvalsh(marginal)
        self.size_sd = math.sqrt(float(np.sum(eigs * (1.0 - eigs))))

    def warm_up(self, work_dir: Path) -> None:
        _run_cli(["sample", "--kernel", self.kernel_path, "--n", 50, "--seed", self.seed,
                  "--out", work_dir / "warm.csv"])

    def steps(self, pass_dir: Path) -> list:
        return [functools.partial(self._sample, pass_dir / "batch.csv")]

    def _sample(self, path: Path):
        code, _ = _run_cli(["sample", "--kernel", self.kernel_path, "--n", self.DRAWS,
                            "--seed", self.seed, "--sampler", "spectral", "--out", path])
        return code, sampling.load_batch(path) if code == 0 else None

    def _z(self, observed, expected) -> np.ndarray:
        var = np.maximum(expected * (1.0 - expected), 1.0 / self.DRAWS) / self.DRAWS
        return np.abs(observed - expected) / np.sqrt(var)

    def evaluate(self, pass_dir: Path, raw) -> list[Group]:
        [(code, batch)] = raw
        if code != 0:
            return [Group("draws", self.DRAWS, 0, f"sample exited {code}", "")]
        fingerprint = _digest((pass_dir / "batch.csv").read_bytes())
        if (len(batch), batch.n_ground, batch.seed, batch.sampler) != \
                (self.DRAWS, self.SIZE, self.seed, "spectral"):
            return [Group("draws", self.DRAWS, 0, "reloaded batch metadata differs", fingerprint)]
        bits = (batch.masks[:, None] >> np.arange(self.SIZE)[None, :]) & 1
        bits = bits.astype(float)
        item_z = self._z(bits.mean(axis=0), self.item_probs)
        pair_z = self._z(bits.T @ bits / self.DRAWS, self.pair_probs)
        pair_z = pair_z[np.triu_indices(self.SIZE, 1)]
        size_z = abs(bits.sum(axis=1).mean() - self.mean_size) / (self.size_sd / math.sqrt(self.DRAWS))
        worst = max(float(item_z.max()), float(pair_z.max()), size_z)
        problem = None if worst <= self.Z_BOUND else f"inclusion frequency at z = {worst:.2f}"
        return [Group("draws", self.DRAWS, 0, problem, fingerprint)]


class Oracles:
    """``dppmle verify --level full``, ``berry-esseen`` and ``experiment --preset twobytwo``.

    Many tiny calls into the same layers: n = 2-3 likelihood calls from
    numdiff, n = 2 spectral draws, the closed forms. Every check line,
    rate row and experiment row is a unit.
    """

    VERIFY_LINES = 7
    RATE_SIZES = (100, 400, 1600, 6400)
    RATE_REPS = 5000
    #: Kolmogorov distance the largest rate size must reach.
    RATE_BOUND = 0.05
    #: n * E|L_hat - L|_F^2 for the dense 2x2 kernel: the explicit
    #: covariance has diagonal (10, 20, 30) and b counts twice.
    TWOBYTWO_SCALED_MSE = 80.0
    TWOBYTWO_Z = 6.0
    #: Bound on the closed-form round trip's max deviation. verify's own bound
    #: is 1e-12 absolute, which rounding alone exceeds on about 3 % of seeds
    #: (up to 7.3e-12 over 150 seeds); 1e-9 is the tolerance of the same round
    #: trip's property test in tests/test_closed_form.py.
    ROUND_TRIP_LINE = "[FAIL] closed-form-round-trip: max deviation "
    ROUND_TRIP_TOL = 1e-9

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        configs = experiments.preset_configs("twobytwo", seeds=(seed,))
        self.twobytwo = [
            f"{c.kernel_id}/{c.method}/{n}/{s}"
            for c in configs for n in c.sample_sizes for s in c.seeds
        ]

    def warm_up(self, work_dir: Path) -> None:
        _run_cli(["berry-esseen", "--sizes", 100, "--reps", 50, "--seed", self.seed,
                  "--out", work_dir / "warm-rate.csv"])

    def steps(self, pass_dir: Path) -> list:
        return [functools.partial(_run_cli, argv) for argv in (
            ["verify", "--level", "full", "--seed", self.seed],
            ["berry-esseen", "--seed", self.seed, "--out", pass_dir / "rate.csv"],
            ["experiment", "--preset", "twobytwo", "--seed", self.seed, "--out", pass_dir / "twobytwo"],
        )]

    def evaluate(self, pass_dir: Path, raw) -> list[Group]:
        (verify_code, verify_out), (rate_code, _), (tt_code, _) = raw
        groups = []
        lines = verify_out.splitlines()
        for line in lines:
            name = line.split("]")[-1].split(":")[0].strip()
            problem, note = None if line.startswith("[PASS]") else line, None
            if line.startswith(self.ROUND_TRIP_LINE):
                deviation = float(line[len(self.ROUND_TRIP_LINE):])
                if deviation <= self.ROUND_TRIP_TOL:
                    problem, note = None, f"verify's 1e-12 bound fails on rounding: {line}"
            groups.append(Group(f"verify/{name}", 1, 0, problem, line, note))
        if len(lines) != self.VERIFY_LINES or (verify_code != 0 and all(l.startswith("[PASS]") for l in lines)):
            groups.append(Group("verify/missing", max(self.VERIFY_LINES - len(lines), 1), 0,
                                f"verify exited {verify_code} with {len(lines)} lines", ""))

        rate_rows = {}
        if rate_code == 0:
            for line in (pass_dir / "rate.csv").read_text(encoding="utf-8").splitlines()[1:]:
                rate_rows[line.split(",")[0]] = line
        for n in self.RATE_SIZES:
            line = rate_rows.get(str(n))
            if line is None:
                groups.append(Group(f"rate/{n}", 1, 0, f"berry-esseen exited {rate_code}", ""))
                continue
            _, distance, reps, _ = line.split(",")
            distance = float(distance)
            bound = self.RATE_BOUND if n == max(self.RATE_SIZES) else 1.0
            problem = None
            if int(reps) != self.RATE_REPS or not 0.0 <= distance <= bound:
                problem = f"rate row {line}"
            groups.append(Group(f"rate/{n}", 1, 0, problem, line))

        rows = _read_runs(pass_dir / "twobytwo" / "runs.csv") if tt_code == 0 else {}
        for key in self.twobytwo:
            fields = rows.get(key)
            if fields is None:
                groups.append(Group(key, 1, 0, f"twobytwo exited {tt_code}", ""))
                continue
            n, status, distance = int(fields[1]), fields[5], float(fields[6])
            dropped = _is_dropped(fields[3], status)
            bound = self.TWOBYTWO_Z * math.sqrt(self.TWOBYTWO_SCALED_MSE / n)
            problem = None
            if not dropped and not distance <= bound:
                problem = f"closed-form estimate at distance {distance:.3g} (bound {bound:.3g})"
            groups.append(Group(key, 1, int(dropped), problem, ",".join(fields)))
        return groups


WORKLOADS = {
    "table1": Table1,
    "clt-newton": CltNewton,
    "spectral-sample": SpectralSample,
    "oracles": Oracles,
}
