"""Self-check suites: they pass on the package and raise on a broken identity;
the truncate suite's contract checks and their ideal-membership test.

The checks raise ContractViolated rather than assert, so a broken identity
is caught under python -O as well.
"""

import random

import pytest

from pwl import verify
from pwl.errors import BadRange, ContractViolated
from pwl.iwasawa import binom_identity
from pwl.sympow import SymVec
from pwl.verify import _ideal_member, run_suite, suite_truncate


def test_identity_and_congruence_suites_pass():
    assert run_suite("identity", seed=3)["passed"]
    assert run_suite("congruence", seed=3)["passed"]


def test_unknown_suite_is_a_typed_error():
    # a suite name is input: an unknown one is a typed error, not a KeyError
    for name in ("nope", "", "ALL", "actions"):
        with pytest.raises(BadRange):
            run_suite(name)


def test_broken_binomial_identity_raises(monkeypatch):
    def off_by_one(n, i, j, h):
        lhs, rhs = binom_identity(n, i, j, h)
        return lhs, rhs + 1

    monkeypatch.setattr(verify, "binom_identity", off_by_one)
    with pytest.raises(ContractViolated) as exc:
        run_suite("identity")
    assert exc.value.payload["lhs"] != exc.value.payload["rhs"]
    assert set(exc.value.payload) == {"n", "i", "j", "h", "lhs", "rhs"}


def test_broken_padic_binomial_identity_raises(monkeypatch):
    # break only the p-adic upper index, after every integer case passed
    def padic_off(n, i, j, h):
        lhs, rhs = binom_identity(n, i, j, h)
        return (lhs, rhs) if isinstance(n, int) else (lhs, rhs + 1)

    monkeypatch.setattr(verify, "binom_identity", padic_off)
    with pytest.raises(ContractViolated) as exc:
        run_suite("identity")
    assert not isinstance(exc.value.payload["n"], int)


def test_broken_truncation_raises(monkeypatch):
    # keep the top n0 + 1 coordinates instead of the bottom ones
    def wrong_end(r, n1, n0, v):
        return SymVec(v.p, min(v.r, r), n0, v.coords[n1 - n0:])

    monkeypatch.setattr(verify, "congr_project", wrong_end)
    with pytest.raises(ContractViolated) as exc:
        run_suite("congruence")
    assert exc.value.payload["lhs"] != exc.value.payload["rhs"]


def test_broken_suite_fails_run_all(monkeypatch):
    monkeypatch.setattr(verify, "binom_identity", lambda n, i, j, h: (0, 1))
    with pytest.raises(ContractViolated):
        run_suite("all")


def test_ideal_member_unit_shift():
    p, r, d = 3, 4, 4
    rng = random.Random(3)
    for _ in range(10):
        series = [rng.randrange(3 ** r) for _ in range(d)]
        assert _ideal_member(series, 0, 1, p, r, d)
        assert _ideal_member(series, 0, -1, p, r, d)


def test_ideal_member_degenerate_shift():
    p, r, d = 3, 4, 4
    # shift 0: ideal is (X), membership means no constant term
    assert _ideal_member([0, 5, 7, 1], 0, 0, p, r, d)
    assert not _ideal_member([2, 5, 7, 1], 0, 0, p, r, d)
    # shift 0 with a power of p in front
    assert _ideal_member([0, 3, 6, 81 - 3], 1, 0, p, r, d)
    assert not _ideal_member([0, 3, 5, 0], 1, 0, p, r, d)
    # shift 3: constant term must be divisible by 3 after peeling one X
    assert _ideal_member([0, 3, 1, 0], 0, 3, p, r, d)
    assert not _ideal_member([1, 0, 0, 0], 0, 3, p, r, d)


def test_truncate_contracts_hold():
    report = suite_truncate(seed=2, trials=5)
    # 5 group coordinates and 15 translate coordinates
    assert report["checks"] == 5 + 15


def test_truncate_checker_detects_overclaim(monkeypatch):
    # slope bound s = 2 claims more than the p-translate gives
    monkeypatch.setattr(verify, "TRUNCATE_CASE", (9, 2, 2, 3, 4, 4))
    with pytest.raises(ContractViolated, match="slope ideal"):
        suite_truncate(seed=2, trials=3)
