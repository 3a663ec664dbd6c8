"""The package's public names: `xsuperint.__all__`."""

import importlib
import pkgutil

import xsuperint

#: Independent oracles the tests keep for themselves, not package API.
TEST_ORACLES = {
    "hamiltonian_residual_fd",
    "wedge_minimum_numeric",
    "wedge_minimum_exact",
    "equilibrium_state",
    "time_reversal_error",
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
