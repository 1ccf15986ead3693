"""Registry of external functions callable from FPIR.

These play the role of libm and of the compiler intrinsics an LLVM-based
implementation would link against.  All of them follow *C* semantics
(quiet inf/NaN, never raising) — see :mod:`repro.fp.arith`.

The registry is deliberately open: clients may register additional
externals (e.g. a higher-precision reference) with :func:`register`.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, Tuple

from repro.fp import arith, bits

_REGISTRY: Dict[str, Callable] = {}


def register(name: str, fn: Callable, overwrite: bool = False) -> None:
    """Register ``fn`` as the external called ``name`` from FPIR code."""
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"external {name!r} already registered")
    _REGISTRY[name] = fn


def lookup(name: str) -> Callable:
    """Resolve an external by name (KeyError with context if missing)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown external function {name!r}; "
            f"known: {sorted(_REGISTRY)}"
        ) from None


def is_registered(name: str) -> bool:
    return name in _REGISTRY


def registry() -> Dict[str, Callable]:
    """A copy of the current registry (for the compiler's namespace)."""
    return dict(_REGISTRY)


def _int_external(fn: Callable) -> Callable:
    def wrapper(x: float) -> int:
        return int(fn(x))

    return wrapper


# libm
register("sqrt", arith.c_sqrt)
register("pow", arith.c_pow)
register("exp", arith.c_exp)
register("log", arith.c_log)
register("sin", arith.c_sin)
register("cos", arith.c_cos)
register("tan", arith.c_tan)
register("floor", arith.c_floor)
register("fabs", arith.c_fabs)
register("ldexp", arith.c_ldexp)
register("fmod", arith.c_fmod)

# bit-level intrinsics (Glibc-style macros)
register("__hi", _int_external(bits.high_word))
register("__lo", _int_external(bits.low_word))
register("__double_to_bits", _int_external(bits.double_to_bits))
register("__bits_to_double", bits.bits_to_double)

def _d2i(x: float) -> int:
    """C truncation double->int.

    For NaN/±inf the C cast is undefined behaviour; x86's cvttsd2si
    yields INT64_MIN, which we mimic so that garbage range reductions
    (the Bug-2 mechanism) keep executing instead of crashing.
    """
    if x != x:
        return -(2**63)
    if x >= 2**63:
        return -(2**63)
    if x <= -(2**63):
        return -(2**63)
    return int(x)


# conversions
register("__d2i", _d2i)
register("__i2d", lambda n: float(n))


def _ulp_dist(a: float, b: float) -> float:
    """ULP distance as a double (inf for NaN operands).

    The integer-valued metric the paper recommends (Sections 5.2, 7)
    for weak distances that must be exact: zero iff ``a == b``.
    """
    if a != a or b != b:
        return float("inf")
    from repro.fp.ulp import ulp_distance

    return float(ulp_distance(a, b))


register("__ulp_dist", _ulp_dist)


#: The externals this module registers: every process that imports FPIR
#: has them.  Any other (``repro.gsl.hyperg``'s, a client's) exists only
#: in processes that registered it, so a pickled program carries it.
_BUILTIN = frozenset(_REGISTRY)


def _by_reference(fn: Callable) -> bool:
    """True when ``fn`` is reachable as ``module.qualname`` (a
    module-level function or builtin), i.e. pickles by reference."""
    target = sys.modules.get(getattr(fn, "__module__", None) or "")
    for part in getattr(fn, "__qualname__", "<unnamed>").split("."):
        target = getattr(target, part, None)
    return target is fn


def carried(program) -> Tuple[Tuple[str, Callable], ...]:
    """``(name, fn)`` for each registered non-builtin external that
    ``program`` calls and that pickles by reference, sorted by name:
    what a process that unpickles the program needs to :func:`ensure`
    before it can run it.  Any other external (a lambda, a closure, a
    bound method) is left to each process's own registry, which a
    worker forked after its registration shares."""
    from repro.fpir.walk import iter_calls

    names = {
        call.func
        for fn in program.functions.values()
        for call in iter_calls(fn.body)
    }
    names -= _BUILTIN | set(program.functions)
    return tuple(
        (name, _REGISTRY[name])
        for name in sorted(names)
        if name in _REGISTRY and _by_reference(_REGISTRY[name])
    )


def ensure(pairs: Iterable[Tuple[str, Callable]]) -> None:
    """Register each ``(name, fn)`` whose name is not registered yet."""
    for name, fn in pairs:
        _REGISTRY.setdefault(name, fn)
