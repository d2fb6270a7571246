"""The self-check measurements: their count rules and their one-pass round trip."""

import numpy as np
import pytest

from dppmle.closed_form import _forward_2x2_arrays, _mle_2x2_arrays, forward_probs_2x2, mle_2x2
from dppmle.errors import ConfigError
from dppmle.likelihood import gradient
from dppmle.numdiff import fd_gradient
from dppmle.verify import (
    QUICK,
    _check_closed_form_round_trip,
    covariance_formula_errors,
    derivative_errors,
    probability_route_deviation,
    run_checks,
)


class TestNoVacuousPass:
    """A measurement over nothing is refused, not passed with a deviation of 0."""

    def test_no_kernels(self):
        with pytest.raises(ConfigError, match="kernels must be at least 1"):
            probability_route_deviation(0, kernels=0, max_size=3)

    @pytest.mark.parametrize("max_size", [1, 0, -3, 2.5, True], ids=["1", "0", "negative", "float", "bool"])
    def test_max_size_below_two(self, max_size):
        with pytest.raises(ConfigError, match="max_size must be an integer of at least 2"):
            probability_route_deviation(0, kernels=2, max_size=max_size)

    def test_no_round_trip_instances(self):
        with pytest.raises(ConfigError, match="instances must be at least 1"):
            _check_closed_form_round_trip(0, 0)

    def test_no_covariance_instances(self):
        with pytest.raises(ConfigError, match="instances must be at least 1"):
            covariance_formula_errors(0, 0)

    @pytest.mark.parametrize("sizes", [[], iter(())], ids=["list", "iterator"])
    def test_no_derivative_problems(self, sizes):
        with pytest.raises(ConfigError, match="problems must be at least 1"):
            derivative_errors(np.random.default_rng(0), sizes, [(gradient, fd_gradient)])

    def test_unknown_level(self):
        with pytest.raises(ConfigError, match="unknown verify level 'bogus'"):
            run_checks("bogus")

    def test_every_passed_is_a_bool(self):
        assert type(_check_closed_form_round_trip(0).passed) is bool
        assert type(probability_route_deviation(0, kernels=3, max_size=3)) is float
        results = run_checks(QUICK, seed=2**128 - 1)
        assert len(results) == 6 and all(type(result.passed) is bool for result in results)


def _loop_round_trip(seed, instances=50):
    """The per-instance round trip as it ran before it made one array pass: (passed, worst, deviations)."""
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    worst, passed, devs = 0.0, True, []
    for _ in range(instances):
        a, c = rng.uniform(0.3, 4.0, size=2)
        b = rng.uniform(0.0, 0.95) * np.sqrt(a * c)
        recovered, _ = mle_2x2(forward_probs_2x2(np.array([[a, b], [b, c]])))
        dev = np.abs(recovered.entries[[0, 0, 1], [0, 1, 1]] - [a, b, c])
        b_tol = eps * (1 + a) * (1 + c) * (1 + a * c) / max(b, np.sqrt(eps * a * c))
        passed = passed and max(dev[0], dev[2]) <= 1e-12 and dev[1] <= b_tol
        worst = max(worst, float(dev.max()))
        devs.append(dev)
    return bool(passed), worst, np.array(devs)


class TestRoundTripPass:
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_the_per_instance_loop(self, seed):
        passed, worst, devs = _loop_round_trip(seed)
        result = _check_closed_form_round_trip(seed)
        assert (result.passed, result.detail) == (passed, f"max deviation {worst:.3e}")
        draws = np.random.default_rng(seed).uniform([0.3, 0.3, 0.0], [4.0, 4.0, 0.95], size=(50, 3))
        a, c = draws[:, 0], draws[:, 1]
        b = draws[:, 2] * np.sqrt(a * c)
        recovered, _, _ = _mle_2x2_arrays(_forward_2x2_arrays(a, b, c))
        assert np.array_equal(np.abs(recovered - np.stack([a, b, c], axis=1)), devs)

    def test_forward_map_is_one_rule(self, rng):
        a, c = rng.uniform(0.3, 4.0, size=(2, 40))
        b = rng.uniform(-1.0, 1.0, size=40) * np.sqrt(a * c)
        tables = _forward_2x2_arrays(a, b, c)
        for k in range(40):
            one = forward_probs_2x2(np.array([[a[k], b[k]], [b[k], c[k]]])).probs
            assert np.array_equal(tables[k], one)
