"""The built-in self-check suites must pass on a correct build."""

import tracemalloc

import pytest

from causalgap import DomainError, analog, verify
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


@pytest.mark.parametrize(
    "check, limit",
    [
        (verify._chk_plancherel, 2 * 2**20),
        (verify._chk_analog_oracle, 2 * 2**20),
        # h and the kept copy of its 2,000,001 complex samples, with 5% to spare
        (verify._chk_sampled_analog_truncation, 2.1 * 16 * 2_000_001),
    ],
    ids=["plancherel", "analog-oracle", "sampled-analog-truncation"],
)
def test_heavy_checks_stay_within_their_memory(monkeypatch, check, limit):
    # tracemalloc sees numpy's buffers; the untraced run settles lazy
    # imports; each part of a sampled range has its own block buffers, so
    # the part count is pinned
    monkeypatch.setattr(analog, "_usable_cpus", lambda: 2)
    assert check(0).passed
    tracemalloc.start()
    try:
        assert check(0).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit
