"""Per-layer tracing for the benchmark.

`install()` wraps public functions of the xsuperint modules and rebinds each
wrapper in every xsuperint module namespace that holds the original, so calls
made through `from .x import f` names are traced as well.  The program itself
is not edited.  A `Tracer` keeps spans (name, start, end, parent) and counts
in memory; `summary()` returns them as plain JSON data.

Install it only in a process that runs one task and then exits (the benchmark
forks one child per command), because the patches are never undone.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (module, function) pairs timed with self time.  The metric name is
# "<module>.<function>".
FUNCTIONS = [
    ("polynomials", "poly_gcd"),
    ("angular", "solve_eigenpolynomial"),
    ("utils", "fraction_nullspace"),
    ("ladders", "parity_report"),
    ("ladders", "deformed_raising_chain"),
    ("ladders", "deformed_lowering_chain"),
    ("ladders", "radial_raising_chain"),
    ("ladders", "radial_lowering_chain"),
    ("verify", "verification_report"),
    ("spectral", "hamiltonian_residual"),
    ("spectral", "angular_gram"),
    ("spectral", "ladder_numeric_check"),
    ("spectral", "wavefunction_on_grid"),
    ("spectral", "degeneracy_table"),
    ("classical", "rk8_step"),
    ("classical", "integrate"),
    ("classical", "conservation_drift"),
    ("classical", "closure_report"),
    ("classical", "convergence_order"),
]
# (module, class, method) pairs timed the same way.
METHODS = [("operators", "DiffOp", "compose")]
# classes whose constructor calls are counted (no timing).
CONSTRUCTED = [("operators", "RatFunc")]

# called tens of thousands of times per task: timed and counted, but no span
# is kept for each call.
HOT = {"polynomials.poly_gcd", "classical.rk8_step"}
# chain_max_bits scans the results of every chain builder; builds and
# distinct argument tuples are counted for the raising chain.
CHAIN_BUILDERS = {"ladders.deformed_raising_chain",
                  "ladders.deformed_lowering_chain",
                  "ladders.radial_raising_chain",
                  "ladders.radial_lowering_chain"}
REUSE_COUNTED = "ladders.deformed_raising_chain"


def max_bits(obj, _depth: int = 0) -> int:
    """Largest numerator or denominator bit length anywhere inside obj
    (Fractions and ints reached through sequences, dicts and attributes)."""
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if _depth > 12:
        return 0
    if isinstance(obj, dict):
        items = list(obj.values()) + list(obj.keys())
    elif isinstance(obj, (list, tuple)):
        items = obj
    else:
        slots = getattr(type(obj), "__slots__", ())
        items = [getattr(obj, s) for s in slots if hasattr(obj, s)]
        items += list(getattr(obj, "__dict__", {}).values())
    return max((max_bits(v, _depth + 1) for v in items), default=0)


class Tracer:
    """Spans and counts of one task; times are seconds since `t0`."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)   # outermost calls only
        self.self_s: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.stack: list[list] = []       # [child seconds, span]
        self.spans: list[list] = []       # [name, start, end, parent span]
        self.chain_args: Counter = Counter()
        self.chain_max_bits = 0
        self.order_integrates = 0
        self.order_wedge_exits = 0

    def timed(self, name: str, fn, args, kwargs):
        parent = self.stack[-1][1] if self.stack else None
        span = None
        if name not in HOT:
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [0.0, span]
        self.stack.append(frame)
        self.calls[name] += 1
        self.depth[name] += 1
        in_order = (name == "classical.integrate"
                    and self.depth["classical.convergence_order"] > 0)
        exited = False
        start = time.perf_counter()
        try:
            return_value = fn(*args, **kwargs)
        except Exception as exc:
            exited = type(exc).__name__ == "WedgeExitError"
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.depth[name] -= 1
            dur = end - start
            self.self_s[name] += dur - frame[0]
            if self.depth[name] == 0:
                self.total_s[name] += dur
            if self.stack:
                self.stack[-1][0] += dur
            if span is not None:
                self.spans[span][1] = start - self.t0
                self.spans[span][2] = end - self.t0
            if in_order:
                self.order_integrates += 1
                self.order_wedge_exits += exited
        if name == REUSE_COUNTED:
            self.chain_args[repr(tuple(str(a) for a in args))
                            + repr(sorted(kwargs.items()))] += 1
        if name in CHAIN_BUILDERS:
            self.chain_max_bits = max(self.chain_max_bits,
                                      max_bits(return_value))
        return return_value

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "spans": self.spans,
            "chain_builds": sum(self.chain_args.values()),
            "chain_builds_distinct": len(self.chain_args),
            "chain_max_bits": self.chain_max_bits,
            "order_integrates": self.order_integrates,
            "order_wedge_exits": self.order_wedge_exits,
        }


def _rebind(original, wrapper) -> None:
    """Replace `original` by `wrapper` in every loaded xsuperint module."""
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("xsuperint") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced function, method and constructor for `tracer`.
    A name the package no longer has is skipped, and its metrics read 0."""
    for modname, fname in FUNCTIONS:
        module = sys.modules[f"xsuperint.{modname}"]
        original = getattr(module, fname, None)
        if original is None:
            continue
        name = f"{modname}.{fname}"

        def wrapper(*args, _fn=original, _name=name, **kwargs):
            return tracer.timed(_name, _fn, args, kwargs)

        wrapper.__name__ = fname
        wrapper.__doc__ = original.__doc__
        _rebind(original, wrapper)
    for modname, cname, mname in METHODS:
        cls = getattr(sys.modules[f"xsuperint.{modname}"], cname)
        original = getattr(cls, mname)
        name = f"{modname}.{cname}.{mname}"

        def method(self, *args, _fn=original, _name=name, **kwargs):
            return tracer.timed(_name, _fn, (self,) + args, kwargs)

        setattr(cls, mname, method)
    for modname, cname in CONSTRUCTED:
        cls = getattr(sys.modules[f"xsuperint.{modname}"], cname)
        original = cls.__init__
        name = f"{modname}.{cname}.created"

        def init(self, *args, _fn=original, _name=name, **kwargs):
            tracer.calls[_name] += 1
            _fn(self, *args, **kwargs)

        cls.__init__ = init
