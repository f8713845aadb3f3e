"""Self-check suites: they pass on the package and raise on a broken identity.

The checks raise ContractViolated rather than assert, so a broken identity
is caught under python -O as well.
"""

import pytest

from pwl import verify
from pwl.errors import ContractViolated
from pwl.sympow import SymVec, binom_identity
from pwl.verify import run_suite


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
