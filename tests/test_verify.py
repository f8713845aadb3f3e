"""Self-check suites: they pass on the package and raise on a broken identity;
the truncation-contract checker and its ideal-membership test.

The checks raise ContractViolated rather than assert, so a broken identity
is caught under python -O as well.
"""

import random

import pytest

from pwl import verify
from pwl.errors import BadLevel, BadRange, ContractViolated
from pwl.sympow import SymVec, binom_identity
from pwl.verify import _ideal_member, run_suite, verify_truncate_lemma


def test_identity_and_congruence_suites_pass():
    assert run_suite("identity", seed=3)["passed"]
    assert run_suite("congruence", seed=3)["passed"]


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
    report = verify_truncate_lemma(9, 1, 2, 3, 4, 4, trials=5, seed=2)
    assert report["trials"] == 5
    assert report["group_coords_checked"] == 5
    assert report["translate_coords_checked"] == 15


def test_truncate_checker_detects_overclaim():
    with pytest.raises(ContractViolated):
        verify_truncate_lemma(9, 2, 2, 3, 4, 4, trials=3, seed=2)


def test_truncate_checker_rejects_bad_input():
    with pytest.raises(BadLevel):
        verify_truncate_lemma(10, 1, 2, 3, 4, 4, trials=1)
    with pytest.raises(BadRange):
        verify_truncate_lemma(9, 1, 1, 3, 4, 4, trials=1)
