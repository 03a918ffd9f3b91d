"""Planted-defect self-test of the benchmark's output checks.

Each check runs on real program output, once against its true reference
(it must pass) and once against a planted wrong one (it must fail):

* alpha off by 5 % in the Var(F) reference;
* the simple average in place of the degree-weighted average;
* eps halved in the frozen-state phi check;
* one EXP-PB1 bound scaled by 0.5.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_checks.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.api import RunSpec  # noqa: E402
from repro.api.run import execute  # noqa: E402
from repro.theory.variance import variance_bounds  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


def _op(ops, span):
    return next(op for op in ops if op.span == span)


def test_variance_check_rejects_alpha_off_by_5_percent(workdir):
    regular, x_regular, _, _ = workloads.f_inputs(SEED)
    computed, cached = _op(workloads.engine_f(SEED, workdir), "cell.reg-node-k1").run()
    alpha = workloads.F_ALPHA_REGULAR
    true = variance_bounds(regular, x_regular, alpha, 1).core
    planted = variance_bounds(regular, x_regular, alpha * 1.05, 1).core
    assert checks.variance_matches(computed, true) == []
    assert checks.variance_matches(computed, planted) != []
    assert checks.same_bits(computed, cached) == []
    nudged = cached.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    assert checks.same_bits(computed, nudged) != []


def test_mean_check_rejects_the_simple_average(workdir):
    _, _, irregular, x_irregular = workloads.f_inputs(SEED)
    values = _op(workloads.engine_f(SEED, workdir), "cell.irr-node-k1").run()
    weighted = workloads.degree_weighted_average(irregular, x_irregular)
    simple = float(x_irregular.mean())
    assert checks.mean_matches(values, weighted, "M(0)") == []
    assert checks.mean_matches(values, simple, "Avg(0)") != []
    assert checks.mean_separates(values, simple, "Avg(0)") == []


def test_phi_check_rejects_half_epsilon(workdir):
    ops = workloads.engine_teps(SEED, workdir)
    hits, frozen = _op(ops, "cell.static-node-k1").run()
    pi = np.full(frozen.shape[1], 1.0 / frozen.shape[1])
    eps = workloads.T_EPSILON
    assert checks.hits_positive(hits) == []
    assert checks.frozen_below(frozen, pi, eps) == []
    assert checks.frozen_below(frozen, pi, eps / 2) != []


def test_bound_check_rejects_a_halved_pb1_bound():
    seed = SEED
    result = execute(RunSpec("EXP-PB1", seed=seed, overrides={"trials": 2_000}))
    bounds = workloads.pb1_bounds(result.provenance.parameters["n"], seed)
    assert workloads.check_pb1(result, bounds) == []
    planted = dict(bounds)
    planted[("node", "cycle", 1)] *= 0.5
    assert workloads.check_pb1(result, planted) != []


def test_zero_spread_fails_without_raising():
    constant = np.zeros(512)
    assert checks.mean_matches(constant, 0.0, "Avg(0)") != []
    assert checks.mean_separates(constant, 1.0, "Avg(0)") != []
    assert checks.variance_matches(constant, 1.0) != []


def test_a_check_that_raises_fails_its_operation():
    import run

    def broken(_):
        raise ZeroDivisionError("planted")

    ops = [
        workloads.Op("ok", lambda: 1, lambda _: []),
        workloads.Op("raises", lambda: 1, broken),
    ]
    runner = run.Runner(ops, None)
    runner.check([1, 1])
    assert (runner.attempted, runner.failed) == (2, 1)
    assert runner.check_failures == ["raises: check raised ZeroDivisionError: planted"]
