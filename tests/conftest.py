import time

import pytest

from coxsaito.coxeter import build_datum, builtin_invariants
from coxsaito.matrix import Matrix
from coxsaito.saito import build_context
from coxsaito.verify import run_suites

_CONTEXTS: dict = {}
_REPORTS: dict = {}
_ELAPSED: dict = {}


def shared_context(label, rank):
    """Session-cached context per built-in group (read-only use only)."""
    key = (label, rank)
    if key not in _CONTEXTS:
        datum = build_datum(label, rank)
        _CONTEXTS[key] = build_context(datum, builtin_invariants(datum))
    return _CONTEXTS[key]


def fresh_context(label, rank):
    """A private context, safe to mutate in fault-injection tests."""
    datum = build_datum(label, rank)
    return build_context(datum, builtin_invariants(datum))


def with_entry(m, i, j, value):
    """A copy of matrix m with entry (i, j) replaced, for tampering tests."""
    grid = [list(row) for row in m.entries]
    grid[i][j] = value
    return Matrix(grid)


def shared_report(label, rank, k_max=3, m_max=7, p_max=3):
    """Session-cached full-suite report; also records wall time."""
    key = (label, rank, k_max, m_max, p_max)
    if key not in _REPORTS:
        ctx = shared_context(label, rank)
        t0 = time.perf_counter()
        _REPORTS[key] = run_suites(ctx, "all", k_max, m_max, p_max)
        _ELAPSED[key] = time.perf_counter() - t0
    return _REPORTS[key]


def report_elapsed(label, rank, k_max=3, m_max=7, p_max=3):
    shared_report(label, rank, k_max, m_max, p_max)
    return _ELAPSED[(label, rank, k_max, m_max, p_max)]


@pytest.fixture(scope="session")
def group_context():
    return shared_context


@pytest.fixture(scope="session")
def group_report():
    return shared_report
