"""The built-in self-check suites must pass on a correct build."""

import math
import tracemalloc

import numpy as np
import pytest

from causalgap import ApproximationReport, DomainError, analog, digital, verify
from causalgap.verify import SUITES, CheckResult, run_checks


def test_all_suites_pass():
    results = run_checks("all", seed=0)
    assert len(results) >= 20
    failed = [r for r in results if not r.passed]
    assert failed == []


def test_single_suite_selection():
    results = run_checks("digital", seed=0)
    assert results and all(r.suite == "digital" for r in results)


def test_check_names_are_unique():
    results = run_checks("all", seed=0)
    names = [(r.suite, r.name) for r in results]
    assert len(names) == len(set(names))


def test_results_carry_details():
    for res in run_checks("operators", seed=3):
        assert isinstance(res, CheckResult)
        assert res.detail


def test_suite_registry():
    assert set(SUITES) == {"analog", "digital", "operators"}


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_checks("quantum", seed=0)


def test_seed_changes_probes_not_verdicts():
    for seed in (0, 1, 12345):
        assert all(r.passed for r in run_checks("operators", seed=seed))


class TestGaussLegendre64:
    """verify's Newton-built rule against numpy's eigenvalue-built one."""

    nodes, weights = verify._GAUSS_LEGENDRE_64

    def test_matches_numpy_leggauss(self):
        want_nodes, want_weights = np.polynomial.legendre.leggauss(64)
        assert np.abs(self.nodes - want_nodes).max() <= 1e-14
        assert np.abs(self.weights - want_weights).max() <= 1e-14

    def test_is_symmetric(self):
        assert np.array_equal(self.nodes, -self.nodes[::-1])
        assert np.array_equal(self.weights, self.weights[::-1])

    def test_integrates_even_powers_to_rounding(self):
        # exact for degree <= 127; x^(2j) integrates to 2 / (2j + 1)
        for j in range(64):
            rule = math.fsum(self.weights * self.nodes ** (2 * j))
            assert abs(rule - 2.0 / (2 * j + 1)) <= 1e-15, j


#: one block's scratch: three float rows and a bool row of _BLOCK points,
#: and the float row of indices the grid's times are made from
_SCRATCH = 33 * analog._BLOCK


@pytest.mark.parametrize(
    "check, limit",
    [
        (verify._chk_plancherel, _SCRATCH),
        # 9,950 midpoints, under one block
        (verify._chk_analog_oracle, 33 * 9_950),
        # h's 20,001 complex samples while the last block is filled
        (verify._chk_sampled_analog_truncation, 16 * 20_001 + _SCRATCH),
    ],
    ids=["plancherel", "analog-oracle", "sampled-analog-truncation"],
)
def test_heavy_checks_stay_within_their_memory(check, limit):
    # tracemalloc sees numpy's buffers; the untraced run settles lazy
    # imports; 5% to spare
    assert check(0).passed
    tracemalloc.start()
    try:
        assert check(0).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * limit


def _scaled(report_fn):
    """report_fn with every distance it reports 1e-4 larger, relatively."""

    def mutant(band, *delay):
        rep = report_fn(band, *delay)
        distance = rep.distance * (1.0 + 1e-4)
        return ApproximationReport(rep.kernel_norm, distance,
                                   math.asin(min(1.0, distance / rep.kernel_norm)),
                                   rep.subspace, rep.method, rep.error_estimate, rep.delay)

    return mutant


@pytest.mark.parametrize("module, report, oracle_checks", [
    (analog, "delayed_report",
     {"analog.riemann-oracle-agreement", "operators.sampled-truncation-energy"}),
    (digital, "delayed_report_digital", {"digital.series-oracle-agreement"}),
    # the two checks that add back the mean of the coefficients beyond a window
    (digital, "causal_report_digital",
     {"digital.best-approximant-energy-split", "operators.causal-truncation-energy"}),
], ids=["analog", "digital", "digital-causal"])
def test_oracle_checks_fail_a_distance_off_by_1e_4(monkeypatch, module, report, oracle_checks):
    monkeypatch.setattr(module, report, _scaled(getattr(module, report)))
    failed = {f"{r.suite}.{r.name}" for r in run_checks("all", seed=0) if not r.passed}
    assert oracle_checks <= failed
