"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest

from xsuperint import ladders
from xsuperint.operators import DiffOp


@pytest.fixture
def compositions(monkeypatch):
    """List of the (left, right) operators of every `DiffOp.compose` call
    made while the test runs.  The package composes no operator, so every
    entry comes from a reference product the test builds itself."""
    calls = []
    real = DiffOp.compose

    def compose(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(DiffOp, "compose", compose)
    return calls


@pytest.fixture
def skewed_raising(monkeypatch):
    """Add 1/7 to the zeroth-order term of every classical raising step the
    chain builders make."""
    real = ladders.jacobi_raising

    def skewed(n, alpha, beta):
        op = real(n, alpha, beta)
        return DiffOp((op.coeffs[0] + Fraction(1, 7),) + op.coeffs[1:])

    monkeypatch.setattr(ladders, "jacobi_raising", skewed)
