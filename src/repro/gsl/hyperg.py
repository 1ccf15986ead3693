"""Port of ``gsl_sf_hyperg_2F0_e`` (GSL hyperg_2F0.c).

GSL's implementation for ``x < 0`` uses the classical identity

    2F0(a, b; x) = (-1/x)^a  U(a, 1 + a - b, -1/x)

and the paper's Table 3 counts **8 elementary FP operations** in it:
``-1.0/x`` (twice — GSL does not CSE), ``1.0 + a``, ``… - b``,
``pre * U.val``, ``eps * |val|``, ``pre * U.err`` and the final ``+``.
The expression shapes below reproduce exactly those 8 labelled ops.

The confluent ``U`` function itself is GSL-internal machinery the paper
does not instrument (fpod targeted the three named entry points);
we provide it as a pair of *externals* computing an asymptotic series —
DESIGN.md records the substitution.  Its overflow behaviour (huge
``pow``, huge products) is what Table 5's hyperg rows exercise, and
those overflow in the *instrumented* top-level ops.
"""

from __future__ import annotations

import math

from repro.fp import arith
from repro.fpir import externals
from repro.fpir.builder import (
    FunctionBuilder,
    call,
    eq,
    fadd,
    fdiv,
    fmul,
    fsub,
    lt,
    num,
    v,
)
from repro.fpir.program import Program
from repro.gsl.machine import GSL_DBL_EPSILON, GSL_EDOM, GSL_SUCCESS

#: Paper's elementary-op count for this benchmark.
PAPER_OP_COUNT = 8


def _hyperg_U_series(a: float, b: float, x: float) -> tuple:
    """Asymptotic series for U(a, b, x), x > 0:

        U(a, b, x) ~ x^-a * Σ_k (a)_k (a-b+1)_k / (k! (-x)^k)

    truncated at the smallest term (standard divergent-series rule).
    Returns (value, error-estimate); overflows quietly like C.  The
    products and sums are Python's IEEE ``*`` and ``+``; the quotient
    stays :func:`repro.fp.arith.fdiv`, whose divisor can be ``±0.0``.
    """
    prefactor = arith.c_pow(x, -a)
    term = 1.0
    total = 1.0
    smallest = abs(term)
    for k in range(1, 40):
        factor = arith.fdiv((a + k - 1.0) * (a - b + k), float(k) * -x)
        term = term * factor
        if abs(term) > smallest:
            break
        smallest = abs(term)
        total = total + term
    value = prefactor * total
    err = abs(prefactor * term) + GSL_DBL_EPSILON * abs(value)
    return value, err


#: The last series computed, ``(key, (value, err))``, replaced whole.
_last_series: tuple = (None, None)


def _series(a: float, b: float, x: float) -> tuple:
    """:func:`_hyperg_U_series`, computed once per evaluation of W.

    W calls ``__hyperg_U_val`` and then ``__hyperg_U_err`` on the same
    ``(a, bU, xU)``, so a one-entry memo serves the second call.  The
    key carries the three zero signs besides the values: equal doubles
    differ only as ``0.0`` and ``-0.0``, and those can give different
    series (``-x`` is in every term's divisor, and ``x ** -a`` keeps
    the sign of a zero ``x`` when ``-a`` is an odd integer:
    ``(-3.0, 1.0, ±0.0)`` has value ``±0.0``).  A NaN argument matches
    only the same float object, whose bits are the same.  A Session's
    jobs evaluate W concurrently on their own threads, so the memo is
    read and replaced as one tuple: a two-step update could pair one
    call's key with another call's value.
    """
    global _last_series
    copysign = math.copysign
    key = (a, b, x, copysign(1.0, a), copysign(1.0, b), copysign(1.0, x))
    last_key, last = _last_series
    if last_key == key:
        return last
    series = _hyperg_U_series(a, b, x)
    _last_series = (key, series)
    return series


def _u_val(a: float, b: float, x: float) -> float:
    return _series(a, b, x)[0]


def _u_err(a: float, b: float, x: float) -> float:
    return _series(a, b, x)[1]


if not externals.is_registered("__hyperg_U_val"):
    externals.register("__hyperg_U_val", _u_val)
    externals.register("__hyperg_U_err", _u_err)


def make_program() -> Program:
    """Build the hypergeometric benchmark (entry takes a, b, x ∈ F^3)."""
    fb = FunctionBuilder("gsl_sf_hyperg_2F0_e", params=["a", "b", "x"])
    a = fb.arg("a")
    b = fb.arg("b")
    x = fb.arg("x")
    with fb.if_(lt(x, num(0.0))) as negative:
        # double pre = pow(-1.0/x, a);
        fb.let("pre", call("pow", fdiv(num(-1.0), x), a))
        # gsl_sf_hyperg_U_e(a, 1.0+a-b, -1.0/x, &U);  (substrate external)
        fb.let("bU", fsub(fadd(num(1.0), a), b))
        fb.let("xU", fdiv(num(-1.0), x))
        fb.let("U_val", call("__hyperg_U_val", a, v("bU"), v("xU")))
        fb.let("U_err", call("__hyperg_U_err", a, v("bU"), v("xU")))
        # result->val = pre * U.val;
        fb.let("result_val", fmul(v("pre"), v("U_val")))
        # result->err = GSL_DBL_EPSILON * fabs(result->val) + pre * U.err;
        fb.let(
            "result_err",
            fadd(
                fmul(num(GSL_DBL_EPSILON), call("fabs", v("result_val"))),
                fmul(v("pre"), v("U_err")),
            ),
        )
        fb.let("status", num(float(GSL_SUCCESS)))
        with negative.orelse():
            with fb.if_(eq(x, num(0.0))) as zero:
                fb.let("result_val", num(1.0))
                fb.let("result_err", num(0.0))
                fb.let("status", num(float(GSL_SUCCESS)))
                with zero.orelse():
                    # x > 0: series diverges; GSL raises a domain error.
                    fb.let("result_val", num(0.0))
                    fb.let("result_err", num(0.0))
                    fb.let("status", num(float(GSL_EDOM)))
    fb.ret(v("result_val"))
    return Program(
        [fb.build()],
        entry="gsl_sf_hyperg_2F0_e",
        globals={
            "result_val": 0.0,
            "result_err": 0.0,
            "status": float(GSL_SUCCESS),
        },
    )


def classify_root_cause(x_star, status, val, err) -> str:
    """Root-cause heuristics for hyperg inconsistencies (Table 5)."""
    a, b, x = x_star
    if x < 0.0:
        pre = arith.c_pow(-1.0 / x, a)
        if not math.isfinite(pre):
            return "Large exponent of pow"
    return "Large operands of *"
