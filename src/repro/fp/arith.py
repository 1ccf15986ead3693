"""C-semantics scalar floating-point operations.

Python's ``float`` is IEEE-754 binary64, but Python sometimes *raises*
where C silently produces ``inf`` or ``NaN`` (``1.0 / 0.0``,
``math.exp(1000)``, ``math.sqrt(-1)``).  The FPIR interpreter and
compiler evaluate programs with the helpers below, which reproduce the
C / IEEE default (non-trapping) behaviour that the paper's native
experiments rely on — overflow detection in particular *needs* operations
to overflow quietly to ``inf`` rather than raise.
"""

from __future__ import annotations

import math

_INF = float("inf")
_NAN = float("nan")


def fadd(a: float, b: float) -> float:
    """IEEE binary64 addition (never raises)."""
    return a + b


def fsub(a: float, b: float) -> float:
    """IEEE binary64 subtraction (never raises)."""
    return a - b


def fmul(a: float, b: float) -> float:
    """IEEE binary64 multiplication (never raises)."""
    return a * b


def fdiv(a: float, b: float) -> float:
    """IEEE binary64 division: x/0 gives ±inf, 0/0 and inf/inf give NaN."""
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return _NAN
        return math.copysign(_INF, a) * math.copysign(1.0, b)


def c_sqrt(x: float) -> float:
    """C ``sqrt``: NaN for negative inputs instead of raising."""
    if x != x:
        return _NAN
    if x < 0.0:
        return _NAN
    try:
        return math.sqrt(x)
    except (ValueError, OverflowError):
        return _NAN if x < 0.0 else _INF


def c_pow(x: float, y: float) -> float:
    """C ``pow`` with IEEE special-case semantics (quiet inf/NaN)."""
    try:
        return math.pow(x, y)
    except OverflowError:
        # Magnitude too large: the sign follows pow's parity rules.
        if x < 0.0 and y == y and y == int(y) and int(y) % 2 == 1:
            return -_INF
        return _INF
    except ValueError:
        if x == 0.0:
            # A zero base with a negative finite exponent: C's pole,
            # signed like the base when the exponent is an odd integer.
            if y == int(y) and int(y) % 2 == 1:
                return math.copysign(_INF, x)
            return _INF
        # Negative base with non-integer exponent.
        return _NAN


def c_exp(x: float) -> float:
    """C ``exp``: overflows quietly to inf."""
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def c_log(x: float) -> float:
    """C ``log``: -inf at 0, NaN for negative inputs."""
    if x != x:
        return _NAN
    if x < 0.0:
        return _NAN
    if x == 0.0:
        return -_INF
    try:
        return math.log(x)
    except (ValueError, OverflowError):
        return _NAN


def c_sin(x: float) -> float:
    """C ``sin``: NaN for non-finite inputs instead of raising."""
    try:
        return math.sin(x)
    except (ValueError, OverflowError):
        return _NAN


def c_cos(x: float) -> float:
    """C ``cos``: NaN for non-finite inputs instead of raising."""
    try:
        return math.cos(x)
    except (ValueError, OverflowError):
        return _NAN


def c_tan(x: float) -> float:
    """C ``tan``: NaN for non-finite inputs instead of raising."""
    try:
        return math.tan(x)
    except (ValueError, OverflowError):
        return _NAN


def c_floor(x: float) -> float:
    """C ``floor`` returning a double (propagates inf/NaN)."""
    if x != x or x == _INF or x == -_INF:
        return x
    return float(math.floor(x))


def c_fmod(x: float, y: float) -> float:
    """C ``fmod``: NaN for ``y == 0`` or non-finite ``x``, quiet otherwise.

    ``math.fmod`` raises ValueError exactly where C99 returns NaN
    (``fmod(x, 0)``, ``fmod(inf, y)``); ``fmod(x, ±inf)`` returns ``x``
    for finite ``x``, as C does.
    """
    if x != x or y != y:
        return _NAN
    if x == _INF or x == -_INF or y == 0.0:
        return _NAN
    if y == _INF or y == -_INF:
        return x
    try:
        return math.fmod(x, y)
    except ValueError:  # pragma: no cover - guarded above
        return _NAN


def c_ldexp(x: float, n: int) -> float:
    """C ``ldexp``: scale by a power of two, overflowing quietly."""
    try:
        return math.ldexp(x, int(n))
    except OverflowError:
        return math.copysign(_INF, x)
