"""The package's public names: `xsuperint.__all__`, and the boundary where
they turn ints and "a/b" strings into `Fraction`s."""

import ast
import importlib
import inspect
import pkgutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import xsuperint

#: Independent oracles the tests keep for themselves, not package API.
TEST_ORACLES = {
    "hamiltonian_residual_fd",
    "wedge_minimum_numeric",
    "wedge_minimum_exact",
    "equilibrium_state",
    "time_reversal_error",
    "trajectory_end",
    "reference_richardson_order",
    "reference_convergence_order",
    "deformed_raising_chain_action",
    "radial_lowering_chain_action",
    "lagrange_interpolate",
}


def test_public_api():
    names = xsuperint.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(xsuperint, name)
    assert not TEST_ORACLES & set(names)
    modules = [xsuperint] + [
        importlib.import_module(f"xsuperint.{info.name}")
        for info in pkgutil.iter_modules(xsuperint.__path__)
        if info.name != "__main__"]
    for module in modules:
        assert not TEST_ORACLES & set(vars(module)), module.__name__


#: Each exported name that takes rationals, called at one (alpha, beta).
RATIONAL_CALLS = {
    "jacobi_polynomial": lambda a, b: xsuperint.jacobi_polynomial(3, a, b),
    "laguerre_polynomial": lambda a, b: xsuperint.laguerre_polynomial(3, a),
    "exceptional_jacobi_closed_form":
        lambda a, b: xsuperint.exceptional_jacobi_closed_form(3, a, b),
    "exceptional_jacobi": lambda a, b: xsuperint.exceptional_jacobi(3, a, b),
    "angular_potential": xsuperint.angular_potential,
    "angular_schrodinger_x": xsuperint.angular_schrodinger_x,
    "angular_operator": xsuperint.angular_operator,
    "angular_eigenroot": lambda a, b: xsuperint.angular_eigenroot(2, a, b),
    "angular_gram": lambda a, b: xsuperint.angular_gram(a, b, 3),
    "raising_intertwiner": xsuperint.raising_intertwiner,
    "lowering_intertwiner": xsuperint.lowering_intertwiner,
    "deformed_raising": lambda a, b: xsuperint.deformed_raising(2, a, b),
    "deformed_lowering": lambda a, b: xsuperint.deformed_lowering(2, a, b),
    "radial_lowering": xsuperint.radial_lowering,
    "radial_raising": xsuperint.radial_raising,
    "parity_report": lambda a, b: xsuperint.parity_report(a, b, 1, 1),
    "verification_report":
        lambda a, b: xsuperint.verification_report(a, b, nmax=2, mmax=1).lines,
}

#: (Fraction, int or string) spellings of the same parameter point.
SPELLINGS = [((Fraction(1), Fraction(3)), (1, 3)),
             ((Fraction(2), Fraction(5)), (2, 5)),
             ((Fraction(1, 2), Fraction(5, 2)), ("1/2", "5/2"))]


def _same(x, y) -> bool:
    return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


def test_rational_calls_cover_every_exported_rational_parameter():
    takes_rationals = {
        name for name in xsuperint.__all__
        if inspect.isfunction(inspect.unwrap(getattr(xsuperint, name)))
        and any("RationalLike" in str(par.annotation) for par in
                inspect.signature(getattr(xsuperint, name)).parameters.values())}
    assert takes_rationals == set(RATIONAL_CALLS) | {"solve_eigenpolynomial"}


@pytest.mark.parametrize("name", sorted(RATIONAL_CALLS))
def test_exported_names_coerce_ints_and_strings(name):
    call = RATIONAL_CALLS[name]
    for exact, spelled in SPELLINGS:
        assert _same(call(*spelled), call(*exact)), (name, spelled)
    with pytest.raises(TypeError):
        call(0.5, Fraction(5, 2))


def test_eigen_solve_coerces_its_eigenvalue():
    op = xsuperint.angular_operator(Fraction(1), Fraction(3))
    want = xsuperint.solve_eigenpolynomial(op, 1, Fraction(25))   # A_1^2
    assert xsuperint.solve_eigenpolynomial(op, 1, 25) == want
    assert xsuperint.solve_eigenpolynomial(op, 1, "25") == want
    with pytest.raises(TypeError):
        xsuperint.solve_eigenpolynomial(op, 1, 25.0)


#: (module, name) where `as_fraction` may be called besides the exported
#: functions: the methods of three classes and two CLI/scoring helpers.
BOUNDARY = {("polynomials", "Poly"), ("operators", "RatFunc"),
            ("params", "ModelParams"), ("cli", "parse_rational"),
            ("verify", "classify_claim")}


def test_rationals_are_coerced_only_at_the_boundary():
    exported = set()
    for name in xsuperint.__all__:
        obj = inspect.unwrap(getattr(xsuperint, name))
        if inspect.isfunction(obj):
            exported.add((obj.__module__.rpartition(".")[2], name))
    callers = set()
    for path in Path(xsuperint.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "as_fraction" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    callers.add((path.stem, getattr(top, "name", None)))
    assert {("polynomials", "Poly"), ("cli", "parse_rational")} <= callers
    assert callers <= exported | BOUNDARY, callers - exported - BOUNDARY


def _tracer_list(name: str) -> list:
    """The literal list assigned to `name` in benchmarks/tracing.py."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    return next(ast.literal_eval(node.value)
                for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


def test_tracer_wraps_only_methods_and_classes_the_package_has():
    # the benchmark tracer skips a function the package no longer has, but
    # a missing method or class would crash every traced run
    for modname, cname, mname in _tracer_list("METHODS"):
        cls = getattr(importlib.import_module(f"xsuperint.{modname}"), cname)
        assert callable(getattr(cls, mname, None)), (modname, cname, mname)
    for modname, cname in _tracer_list("CONSTRUCTED"):
        cls = getattr(importlib.import_module(f"xsuperint.{modname}"), cname,
                      None)
        assert isinstance(cls, type), (modname, cname)
