"""The batched tier: FPIR lowered to NumPy masked-lane regions.

The scalar tiers execute one candidate point at a time: the reference
interpreter (:mod:`repro.fpir.interpreter`) walks the tree, the
compiler (:mod:`repro.fpir.compiler`) generates Python source.  A
:class:`BatchProgram` scores an ``(N, d)`` block of candidate points in
one call, giving each point its own *lane* of every slot array.
Control flow becomes mask algebra: a branch runs its arms under
``mask & cond`` and ``mask & ~cond``, a loop keeps iterating while any
lane's condition holds, ``Halt``/``Return`` retire lanes from their
scope, and stores to named variables merge through ``np.where`` so
retired or diverged lanes keep their values.

:func:`compile_batch` lowers the program in one pass over its tree
straight into nested *regions*: straight-line ops, each a
``functools.partial`` with its ufunc and operand slots resolved, and
the control ops (branch, loop, inlined frame, return, halt) that own
the regions nested in them.  A call then runs straight-line ops back
to back and re-tests the live-lane mask only where a ``Halt``, a
``Return`` or a loop budget can have changed it.  Constants and global
initial values are broadcast once per batch size into a read-only slot
template that each call copies.

Lowering invariants
-------------------

* **Structured regions, not jumps.**  Masked-lane (SIMT) evaluation
  needs to know where a diverged lane rejoins, so control flow keeps
  the tree's nesting: every branch arm, loop condition, loop body and
  inlined function body is a region of its own.
* **Three-address slots.**  Every expression value lands in a fresh
  slot exactly once; only *named* variables (locals and globals) are
  stored under the active-lane mask.  Temporaries never need masking
  because they are written and read under the same mask.
* **Left-to-right effect order.**  FPIR expressions are pure except for
  calls to program functions (which may assign globals).  When an
  operand to the *right* of a variable reference contains such a call,
  the variable is copied into a temporary first so the batch tier
  observes the same value the scalar tiers do.
* **Calls are inlined.**  Each call site lowers the callee again with
  fresh slots, inside a frame that gives ``Return`` its per-lane scope.
  Recursion therefore cannot be lowered.
* **Dead code is lowered, never run.**  The code after a ``Return`` or
  ``Halt`` in the same region emits nothing, but it is lowered, so it
  is refused exactly where live code would be.

Constructs the batched tier refuses (:class:`BatchCompilationError`)
rather than risking silent semantic drift: recursive calls, unknown
externals, externals whose results exceed the ``int64`` range the
integer lanes use (``__double_to_bits``), and integer constants or
global initial values outside that range.  Callers fall back to a
scalar tier.  Everything else in :mod:`repro.fpir.nodes` lowers,
including instrumentation constructs (``InLabelSet`` becomes a
lane-constant set probe; ``RecordEvent`` emits nothing, see below).

Invariants (the bit-parity contract)
------------------------------------

* **Bit parity with the scalar tiers.**  For every lane ``i``,
  ``run(X)`` leaves exactly the values the reference interpreter
  produces for ``X[i]`` — same bits, including signed zeros and
  infinities.  All lane arithmetic runs under ``np.errstate(all=
  "ignore")`` so overflow and division produce C-style quiet inf/NaN,
  matching :mod:`repro.fp.arith`.
* **Calibrated externals.**  A NumPy candidate for an external (e.g.
  ``np.exp`` for ``exp``) is used only after being verified bit-exact
  against the registered scalar external on a deterministic probe set
  (IEEE special values plus random 64-bit patterns).  Candidates that
  deviate — NumPy's SIMD transcendentals may round differently from
  libm — are replaced by lane-wise application of the scalar external,
  which is slower but exact by construction.
* **NaN/inf in masked lanes.**  Both arms of a select-safe ternary are
  evaluated on all lanes; lanes that the scalar tiers would never
  evaluate may compute inf/NaN garbage, which the select mask then
  discards.  This is safe precisely because select-safe expressions
  cannot fault (see :func:`_select_safe`); faultable expressions run
  under branch masks instead.
* **Step budget.**  Each lane carries its own loop-iteration counter
  mirroring ``CompiledRuntime.check_loop``; a lane exceeding
  ``max_loop_steps`` is retired with ``exhausted=True`` and its caller
  reads W as ``inf`` — the batch equivalent of ``StepLimitExceeded``.
* **Events and counters are not recorded.**  ``RecordEvent`` is a
  no-op here: event/counter observation drives scalar *replays*
  (:meth:`repro.core.weak_distance.WeakDistance.replay`), never batch
  minimization, so batch runs only produce values and globals.
* **Strict-by-batch faults.**  Conditions that raise ``InterpreterError``
  for a single scalar point (array index out of range, integer division
  by zero on an *active* lane) raise :class:`BatchExecutionError` for
  the whole batch; callers fall back to the scalar tier, which
  reproduces the per-point error faithfully.  So do integers the int64
  lanes cannot hold exactly where the scalar tiers' Python ints can: an
  operator result or an ``int()`` conversion outside int64, and a
  negative shift count (Python raises there).  Both arms of a select
  run on every lane, so an integer overflow in the arm a lane does not
  take also faults the batch; the scalar re-run is exact either way.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.fpir import externals
from repro.fpir.nodes import (
    ArrayIndex,
    Assign,
    BinOp,
    Block,
    Call,
    Compare,
    Const,
    Expr,
    Halt,
    If,
    InLabelSet,
    INT_OPS,
    RecordEvent,
    Return,
    Stmt,
    Ternary,
    UnOp,
    Var,
    While,
)
from repro.fpir.program import Function, Program

_INT64_MIN = -(2**63)


class BatchExecutionError(Exception):
    """A whole-batch fault (bad index, idiv by zero, unexpected value).

    The scalar tiers raise ``InterpreterError`` for the one offending
    point; the batch tier cannot attribute the fault to a lane cheaply,
    so it rejects the batch and lets the caller re-run scalar.
    """


# ---------------------------------------------------------------------------
# Lane coercions (mirroring the interpreter's bool()/int() calls)
# ---------------------------------------------------------------------------


def _as_bool(arr: np.ndarray) -> np.ndarray:
    """Python truthiness per lane (NaN is truthy, like ``bool(nan)``)."""
    if arr.dtype == np.bool_:
        return arr
    return arr != 0


def _as_int(arr: np.ndarray) -> np.ndarray:
    """``int()`` per lane: truncation toward zero onto int64 lanes."""
    if arr.dtype == np.int64:
        return arr
    if arr.dtype == np.bool_:
        return arr.astype(np.int64)
    return np.trunc(arr).astype(np.int64)


# ---------------------------------------------------------------------------
# Vectorized externals, admitted only after bit-exact calibration
# ---------------------------------------------------------------------------


def _v_pow(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # On float lanes, as math.pow converts its operands; np.power has
    # C99's poles at a zero base, as c_pow does.
    return np.power(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))


def _v_ldexp(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    xf = np.asarray(x, dtype=np.float64)
    # Exponents beyond ±66000 saturate to 0/±inf regardless; clipping
    # keeps the cast to the exponent dtype np.ldexp accepts lossless.
    ni = np.clip(_as_int(n), -66000, 66000)
    return np.ldexp(xf, ni)


def _v_hi(x: np.ndarray) -> np.ndarray:
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    return (bits >> np.uint64(32)).astype(np.int64)


def _v_lo(x: np.ndarray) -> np.ndarray:
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    return (bits & np.uint64(0xFFFFFFFF)).astype(np.int64)


def _v_bits_to_double(n: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(_as_int(n)).view(np.float64)


def _v_d2i(x: np.ndarray) -> np.ndarray:
    xf = np.asarray(x, dtype=np.float64)
    bad = np.isnan(xf) | (xf >= 2.0**63) | (xf <= -(2.0**63))
    out = np.trunc(np.where(bad, 0.0, xf)).astype(np.int64)
    return np.where(bad, np.int64(_INT64_MIN), out)


def _v_i2d(n: np.ndarray) -> np.ndarray:
    return np.asarray(n).astype(np.float64)


#: NumPy candidates per external name; each is admitted only if it
#: reproduces the scalar external bit-for-bit on the probe set.
_CANDIDATES: Dict[str, Tuple[int, Callable]] = {
    "sqrt": (1, np.sqrt),
    "exp": (1, np.exp),
    "log": (1, np.log),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "tan": (1, np.tan),
    "floor": (1, np.floor),
    "fabs": (1, np.fabs),
    "pow": (2, _v_pow),
    "fmod": (2, np.fmod),
    "ldexp": (2, _v_ldexp),
    "__hi": (1, _v_hi),
    "__lo": (1, _v_lo),
    "__bits_to_double": (1, _v_bits_to_double),
    "__d2i": (1, _v_d2i),
    "__i2d": (1, _v_i2d),
}

#: Externals whose candidate consumes integer lanes (probe with int64).
_INT_ARG_EXTERNALS = frozenset({"__bits_to_double", "__i2d"})

_PROBE_COUNT = 4096
_PROBE_SEED = 0xF00D

_calibration_cache: Dict[str, Optional[Callable]] = {}


def _float_probes() -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(_PROBE_SEED))
    patterns = rng.integers(0, 2**64, size=_PROBE_COUNT, dtype=np.uint64)
    specials = np.array(
        [
            0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0,
            1e-308, -1e-308, 5e-324, -5e-324, 1e308, -1e308,
            math.inf, -math.inf, math.nan, math.pi, -math.pi,
            709.0, 710.0, -745.0, -746.0, 1e16, 1e-16, 1000.0, -1000.0,
        ]
    )
    magnitudes = np.float64(10.0) ** rng.uniform(-300, 300, size=512)
    signs = np.where(rng.random(512) < 0.5, -1.0, 1.0)
    return np.concatenate(
        [specials, patterns.view(np.float64), magnitudes * signs]
    )


def _int_probes() -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(_PROBE_SEED + 1))
    small = np.arange(-40, 40, dtype=np.int64)
    wide = rng.integers(
        _INT64_MIN, 2**63 - 1, size=_PROBE_COUNT, dtype=np.int64
    )
    return np.concatenate([small, wide])


def _bits_equal(vec: np.ndarray, ref: List[Any]) -> bool:
    """Lane-for-lane equality, float lanes bit for bit — NaN lanes too:
    the bit intrinsics (``__hi``/``__lo``) read a NaN's sign."""
    ref_arr = np.asarray(ref)
    if vec.shape != ref_arr.shape:
        return False
    if vec.dtype == np.float64 and ref_arr.dtype == np.float64:
        return bool(np.all(vec.view(np.uint64) == ref_arr.view(np.uint64)))
    try:
        return bool(np.all(vec == ref_arr)) and vec.dtype == ref_arr.dtype
    except Exception:
        return False


def _plus_nan(fn: Callable, keep_operand_nans: bool) -> Callable:
    """``fn`` with its NaN results rewritten to ``+nan``, the NaN the
    scalar externals produce; with ``keep_operand_nans``, lanes with a
    NaN operand keep ``fn``'s NaN (the operand's, propagated)."""

    def plus_nan(*args):
        out = fn(*args)
        nan = np.isnan(out)
        if not nan.any():
            return out
        if keep_operand_nans:
            for arg in args:
                nan &= ~np.isnan(arg)
        return np.where(nan, math.nan, out)

    return plus_nan


def _calibrate(name: str) -> Optional[Callable]:
    """The admitted vector implementation for ``name``, or None.

    The first candidate that reproduces the scalar external bit for bit
    on the probe set is admitted: the bare NumPy function, then the
    same with the NaNs it makes of non-NaN operands rewritten to
    ``+nan`` (NumPy's default NaN has its sign bit set), then with
    every NaN result rewritten.  Deterministic per process: the probe
    set is fixed-seeded, so an external either always vectorizes on a
    given platform or never does — reproducibility is never
    platform-rounding-dependent.
    """
    if name in _calibration_cache:
        return _calibration_cache[name]
    entry = _CANDIDATES.get(name)
    result: Optional[Callable] = None
    if entry is not None:
        arity, candidate = entry
        scalar = externals.lookup(name)
        probes = (
            _int_probes() if name in _INT_ARG_EXTERNALS else _float_probes()
        )
        try:
            with np.errstate(all="ignore"):
                if arity == 1:
                    args = (probes,)
                    ref = [scalar(v.item()) for v in probes]
                else:
                    if name == "ldexp":
                        second = np.concatenate(
                            [
                                np.arange(-80, 80, dtype=np.int64),
                                np.array(
                                    [
                                        -66000,
                                        -2200,
                                        -1074,
                                        -1022,
                                        0,
                                        1022,
                                        1024,
                                        2200,
                                        66000,
                                    ],
                                    dtype=np.int64,
                                ),
                            ]
                        )
                        a = np.repeat(_float_probes()[:256], len(second))
                        b = np.tile(second, 256)
                    else:
                        floats = _float_probes()
                        half = len(floats) // 2
                        a = floats[:half]
                        b = floats[half : 2 * half]
                    args = (a, b)
                    ref = [
                        scalar(x.item(), y.item()) for x, y in zip(a, b)
                    ]
                for vector in (
                    candidate,
                    _plus_nan(candidate, keep_operand_nans=True),
                    _plus_nan(candidate, keep_operand_nans=False),
                ):
                    if _bits_equal(np.asarray(vector(*args)), ref):
                        result = vector
                        break
        except Exception:
            result = None
    _calibration_cache[name] = result
    return result


# ---------------------------------------------------------------------------
# Integer lanes: exact, or a batch fault — never a silent int64 wrap
# ---------------------------------------------------------------------------
#
# The scalar tiers compute integer operators on Python ints, which never
# overflow; the batch tier's int64 lanes would wrap.  Each operator below
# therefore checks that every *active* lane's exact result fits, and
# raises BatchExecutionError otherwise (the caller re-runs the batch
# scalar).  Inactive lanes may hold anything: their values are masked.

_count = np.count_nonzero
_where = np.where


def _fault_if(bad: np.ndarray, message: str) -> None:
    if _count(bad):
        raise BatchExecutionError(message)


def _lane_int(arr: np.ndarray, live: np.ndarray) -> np.ndarray:
    """``int()`` per active lane: exact, or a batch fault."""
    if arr.dtype == np.int64:
        return arr
    if arr.dtype == np.bool_:
        return arr.astype(np.int64)
    # int() raises on NaN/inf and stays exact beyond 2**63.
    _fault_if(
        live & ~((arr >= -(2.0**63)) & (arr < 2.0**63)),
        "value outside the int64 lane range",
    )
    return np.trunc(arr).astype(np.int64)


def _iadd(x, y, live):
    r = x + y
    _fault_if(live & (((x ^ r) & (y ^ r)) < 0), "int64 overflow in iadd")
    return r


def _isub(x, y, live):
    r = x - y
    _fault_if(live & (((x ^ y) & (x ^ r)) < 0), "int64 overflow in isub")
    return r


def _imul(x, y, live):
    r = x * y
    # A wrapped product never divides back exactly; -1 * INT64_MIN is
    # the one case where the quotient itself wraps.
    back = r // _where(x == 0, np.int64(1), x)
    wrapped = (x != 0) & ((back != y) | ((x == -1) & (y == _INT64_MIN)))
    _fault_if(live & wrapped, "int64 overflow in imul")
    return r


def _idiv(x, y, live):
    _fault_if(live & (y == 0), "integer division by zero")
    _fault_if(live & (x == _INT64_MIN) & (y == -1), "int64 overflow in idiv")
    safe = _where(y == 0, np.int64(1), y)
    q = x // safe
    # Floor to truncation: step toward zero when inexact and the signs
    # differ (the scalar tiers' abs(a) // abs(b) with the sign put back).
    return q + ((q * safe != x) & ((x < 0) != (safe < 0)))


def _shl(x, s, live):
    _fault_if(live & (s < 0), "negative shift count")
    r = np.left_shift(x, s)
    lost = (np.right_shift(r, s) != x) | ((s >= 64) & (x != 0))
    _fault_if(live & lost, "int64 overflow in shl")
    return r


def _shr(x, s, live):
    _fault_if(live & (s < 0), "negative shift count")
    return np.right_shift(x, s)


def _bitwise(ufunc):
    return lambda x, y, live: ufunc(x, y)


_INT_OPS: Dict[str, Callable] = {
    "iadd": _iadd,
    "isub": _isub,
    "imul": _imul,
    "idiv": _idiv,
    "band": _bitwise(np.bitwise_and),
    "bor": _bitwise(np.bitwise_or),
    "bxor": _bitwise(np.bitwise_xor),
    "shl": _shl,
    "shr": _shr,
}


def _fdiv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a / b`` as :func:`repro.fp.arith.fdiv` divides: ``0/0`` and
    ``nan/0`` are ``+nan`` there, where the hardware's ``0/0`` NaN has
    its sign bit set and ``nan/0`` keeps the operand's NaN."""
    out = np.true_divide(a, b)
    by_zero = b == 0.0
    if not by_zero.any():
        return out
    return np.where(by_zero & ((a == 0.0) | np.isnan(a)), math.nan, out)


_FLOAT_OPS: Dict[str, Callable] = {
    "fadd": np.add,
    "fsub": np.subtract,
    "fmul": np.multiply,
    "fdiv": _fdiv,
}

_COMPARE_OPS: Dict[str, Callable] = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BatchResult:
    """Per-lane outcome of one batched run.

    Arrays may be shared, read-only broadcast constants (a global no
    lane ever stored keeps its initial-value array); copy before
    writing to them.
    """

    #: Entry-function return values (None when no lane returned one).
    values: Optional[np.ndarray]
    #: Final per-lane value of every program global.
    globals: Dict[str, np.ndarray]
    #: Lanes stopped by ``Halt``.
    halted: np.ndarray
    #: Lanes that exceeded the loop budget (scalar ``StepLimitExceeded``).
    exhausted: np.ndarray


class _Run:
    """Lane state of one :meth:`BatchProgram.run` call.

    ``alive`` is the complement of the lanes stopped by ``Halt`` or the
    loop budget; ``ret_alive[f]`` the complement of the lanes that have
    returned from the current activation of frame ``f`` (kept only for
    frames with a ``Return`` nested in a branch or loop).  Both only
    shrink, so a live mask re-intersected with them is exact.
    """

    __slots__ = (
        "alive",
        "halted",
        "exhausted",
        "loop_steps",
        "max_loop_steps",
        "ret_alive",
        "sets",
        "true",
        "false",
    )


#: A region is a tuple of segments ``(ops, ctl)``: straight-line ops
#: ``op(slots, live, run)`` run back to back, then an optional control
#: op ``ctl(slots, live, run)`` returns the live mask to continue with,
#: or None when no lane is left in the region.
Region = Tuple[Tuple[Tuple[Callable, ...], Optional[Callable]], ...]


def _exec(region: Region, slots: list, live: np.ndarray, run: _Run) -> None:
    for ops, ctl in region:
        for op in ops:
            op(slots, live, run)
        if ctl is not None:
            live = ctl(slots, live, run)
            if live is None:
                return


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _lane_array(value: Any, n: int) -> np.ndarray:
    """``value`` on every lane, in the dtype the scalar value implies."""
    if isinstance(value, bool):
        return np.full(n, value)
    if isinstance(value, int):
        return np.full(n, value, dtype=np.int64)
    return np.full(n, float(value))


def _check_int64(value: Any, what: str) -> None:
    if (
        isinstance(value, int)
        and not isinstance(value, bool)
        and not _INT64_MIN <= value < 2**63
    ):
        raise BatchCompilationError(f"{what} {value} exceeds the int64 lane range")


def _global_init(init: Any) -> Any:
    """Globals start as int64 lanes only for true ints, else float64."""
    if isinstance(init, bool) or not isinstance(init, int):
        return float(init)
    return init


def _value_key(value: Any) -> Tuple[str, Any]:
    """Dedup key that keeps -0.0, NaN payloads, bools and ints apart."""
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, int):
        return ("i", value)
    return ("f", struct.pack("<d", float(value)))


#: Batch sizes whose broadcast constants a program keeps at a time.
_TEMPLATES_KEPT = 4


# ---------------------------------------------------------------------------
# Lowering: the FPIR tree straight into regions of pre-bound ops
# ---------------------------------------------------------------------------


class BatchCompilationError(Exception):
    """The program uses a construct the batched tier cannot lower.

    This is a *capability* signal, not a bug: callers (notably
    :class:`repro.core.weak_distance.WeakDistance`) catch it and fall
    back to the scalar compiler, which supports all of FPIR.
    """


#: Externals whose scalar results do not fit the int64 lanes the
#: vectorized evaluator uses for integer values.  Programs calling them
#: fall back to the scalar tiers.
REJECTED_EXTERNALS = frozenset({"__double_to_bits"})


def _contains_user_call(expr: Expr, functions: Dict[str, Function]) -> bool:
    """Can evaluating ``expr`` mutate globals (via a program call)?"""
    cls = expr.__class__
    if cls is Call:
        if expr.func in functions:
            return True
        return any(_contains_user_call(a, functions) for a in expr.args)
    if cls is BinOp or cls is Compare:
        return _contains_user_call(expr.lhs, functions) or _contains_user_call(
            expr.rhs, functions
        )
    if cls is UnOp:
        return _contains_user_call(expr.operand, functions)
    if cls is Ternary:
        return (
            _contains_user_call(expr.cond, functions)
            or _contains_user_call(expr.then, functions)
            or _contains_user_call(expr.orelse, functions)
        )
    if cls is ArrayIndex:
        return _contains_user_call(expr.index, functions)
    return False


def _select_safe(expr: Expr, functions: Dict[str, Function]) -> bool:
    """Can ``expr`` be evaluated on lanes whose scalar counterpart would
    not evaluate it (both arms of a select, the RHS of ``and``/``or``)?

    Safe means "cannot fault and has no side effects": float
    arithmetic, comparisons, externals (all registered externals are
    quiet), label-set probes.  Array indexing (bounds), every integer
    operator (int64 overflow, a zero divisor, a negative shift count,
    a float operand outside int64) and program calls are unsafe and
    force branch lowering.
    """
    cls = expr.__class__
    if cls is Const or cls is Var or cls is InLabelSet:
        return True
    if cls is BinOp:
        if expr.op in INT_OPS:
            return False
        return _select_safe(expr.lhs, functions) and _select_safe(expr.rhs, functions)
    if cls is Compare:
        return _select_safe(expr.lhs, functions) and _select_safe(expr.rhs, functions)
    if cls is UnOp:
        if expr.op == "ineg":
            return False
        return _select_safe(expr.operand, functions)
    if cls is Ternary:
        return (
            _select_safe(expr.cond, functions)
            and _select_safe(expr.then, functions)
            and _select_safe(expr.orelse, functions)
        )
    if cls is Call:
        if expr.func in functions:
            return False
        return all(_select_safe(a, functions) for a in expr.args)
    return False  # ArrayIndex, unknown nodes


class _Region:
    """A region under construction, in frame ``(id, ret_slot)``.

    Besides its segments it gathers two static facts the runner uses to
    skip liveness tests: ``stops`` when lanes can be stopped inside (a
    ``Halt`` or a loop budget, also inside inlined helpers) and
    ``returns`` when a ``Return`` from the frame inside must be recorded
    in the frame's mask (``nested``: the region sits in a branch or loop
    of its frame).  After a ``Return`` or ``Halt`` no lane is left in the
    region: it turns ``dead``, and what is lowered after emits nothing.
    """

    __slots__ = ("frame", "nested", "dead", "segments", "ops", "stops", "returns")

    def __init__(self, frame: Tuple[int, Optional[int]], nested: bool, dead: bool):
        self.frame = frame
        self.nested = nested
        self.dead = dead
        self.segments: List[Tuple[Tuple[Callable, ...], Optional[Callable]]] = []
        self.ops: List[Callable] = []
        self.stops = self.returns = False

    def op(self, op: Callable) -> None:
        if not self.dead:
            self.ops.append(op)

    def ctl(self, ctl: Callable, stops: bool = False, returns: bool = False) -> None:
        if not self.dead:
            self.segments.append((tuple(self.ops), ctl))
            self.ops = []
            self.stops = self.stops or stops
            self.returns = self.returns or returns

    def build(self) -> Region:
        if self.ops:
            return (*self.segments, (tuple(self.ops), None))
        return tuple(self.segments)


class _Lowerer:
    """One pass from a :class:`Program` to its region tree.

    Walks the entry function, inlining every call, and emits each
    statement's ops and controls into the region being built.  On the
    way it records what the slot template and the ops need: constants,
    boolean-typed slots (ops skip ``_as_bool`` on them) and each
    external's calibrated vector form.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.functions = program.functions
        self.arrays = {
            name: np.asarray(values, dtype=np.float64)
            for name, values in program.arrays.items()
        }
        self.n_slots = 0
        self.named_slots: set = set()
        self.bool_slots: set = set()
        self.consts: Dict[int, Any] = {}
        self.n_frames = 1
        self.global_slots = {
            name: self._new_slot(named=True) for name in program.globals
        }
        self.region = _Region((0, None), nested=False, dead=False)

    def lower(self) -> Tuple[Region, Tuple[int, ...], int]:
        """``(root region, parameter slots, result slot)``."""
        entry = self.program.entry_function
        params = tuple(self._new_slot(named=True) for _ in entry.params)
        result = self._call_body(entry, params, (entry.name,))
        return self.region.build(), params, result

    # -- slots and regions -----------------------------------------------------

    def _new_slot(self, named: bool = False) -> int:
        slot = self.n_slots
        self.n_slots += 1
        if named:
            self.named_slots.add(slot)
        return slot

    def _bool_slot(self) -> int:
        slot = self._new_slot()
        self.bool_slots.add(slot)
        return slot

    def _truth(self, slot: int) -> Tuple[int, bool]:
        """``(slot, is_bool)``: ops skip ``_as_bool`` on boolean slots."""
        return slot, slot in self.bool_slots

    def _lower_in(self, region: _Region, lower: Callable, *args) -> Any:
        """``lower(*args)``, its ops and controls emitted into ``region``."""
        outer, self.region = self.region, region
        value = lower(*args)
        self.region = outer
        return value

    def _arm(self, lower: Callable, *args) -> _Region:
        """A region nested in a branch or loop of the current frame."""
        region = _Region(self.region.frame, nested=True, dead=self.region.dead)
        self._lower_in(region, lower, *args)
        return region

    def _if(self, cond: int, then: _Region, orelse: _Region) -> None:
        """A branch control over two arms; none when both are empty."""
        then_r, else_r = then.build(), orelse.build()
        if then_r or else_r:
            stops = then.stops or orelse.stops
            returns = then.returns or orelse.returns
            track = stops or returns
            frame_id = self.region.frame[0]
            ctl = _branch(self._truth(cond), then_r, else_r, frame_id, track)
            self.region.ctl(ctl, stops, returns)

    def _refuse(self, message: str) -> None:
        """Refuse an operator no op implements, where it would run: in
        dead code only its names and calls are checked."""
        if not self.region.dead:
            raise BatchCompilationError(message)

    def _call_body(self, fn: Function, args: Tuple[int, ...], stack) -> int:
        """Inline ``fn``'s body in a frame control; returns the slot
        holding its return value."""
        env: Dict[str, int] = {}
        for name, arg in zip(fn.param_names, args):
            slot = self._new_slot(named=True)
            self.region.op(partial(_op_copy, slot, arg))
            env[name] = slot
        ret = self._new_slot(named=True)
        frame_id = self.n_frames
        self.n_frames += 1
        body = _Region((frame_id, ret), nested=False, dead=self.region.dead)
        self._lower_in(body, self._block, fn.body, env, stack)
        outer_id = self.region.frame[0]
        ctl = _frame(body.build(), frame_id, body.returns, outer_id)
        self.region.ctl(ctl, stops=body.stops)
        return ret

    # -- statements ------------------------------------------------------------

    def _block(self, blk: Block, env: Dict[str, int], stack) -> None:
        for stmt in blk.stmts:
            self._stmt(stmt, env, stack)

    def _stmt(self, stmt: Stmt, env: Dict[str, int], stack) -> None:
        cls = stmt.__class__
        region = self.region
        if cls is Assign:
            src = self._expr(stmt.expr, env, stack)
            # Globals shadow locals on assignment, matching the
            # interpreter's `name in ctx.globals` check.
            if stmt.name in self.global_slots:
                slot = self.global_slots[stmt.name]
            elif stmt.name in env:
                slot = env[stmt.name]
            else:
                slot = env[stmt.name] = self._new_slot(named=True)
            region.op(partial(_op_store, slot, src))
        elif cls is If:
            cond = self._expr(stmt.cond, env, stack)
            self._if(
                cond,
                self._arm(self._block, stmt.then, env, stack),
                self._arm(self._block, stmt.orelse, env, stack),
            )
        elif cls is While:
            head = _Region(region.frame, nested=True, dead=region.dead)
            cond = self._lower_in(head, self._expr, stmt.cond, env, stack)
            body = self._arm(self._block, stmt.body, env, stack)
            ctl = _loop(self._truth(cond), head.build(), body.build(), region.frame[0])
            region.ctl(ctl, stops=True, returns=body.returns)
        elif cls is Return:
            src = None if stmt.value is None else self._expr(stmt.value, env, stack)
            ctl = _return(src, region.frame, region.nested)
            region.ctl(ctl, returns=region.nested)
            region.dead = True
        elif cls is Halt:
            region.ctl(_halt, stops=True)
            region.dead = True
        elif cls is Block:
            self._block(stmt, env, stack)
        elif cls is not RecordEvent:  # events are scalar-replay only
            raise BatchCompilationError(f"unknown statement {stmt!r}")

    # -- expressions -----------------------------------------------------------

    def _expr(self, expr: Expr, env: Dict[str, int], stack) -> int:
        cls = expr.__class__
        if cls is Const:
            # Constants live in the per-size slot template, not in ops.
            _check_int64(expr.value, "constant")
            dest = self._new_slot()
            self.consts[dest] = expr.value
            return dest
        if cls is Var:
            if expr.name in env:
                return env[expr.name]
            if expr.name in self.global_slots:
                return self.global_slots[expr.name]
            raise BatchCompilationError(f"undefined variable {expr.name!r}")
        if cls is BinOp:
            if expr.op in ("and", "or"):
                return self._boolop(expr, env, stack)
            lhs = self._operand(expr.lhs, expr.rhs, env, stack)
            rhs = self._expr(expr.rhs, env, stack)
            dest = self._new_slot()
            if expr.op in _FLOAT_OPS:
                self.region.op(partial(_op2, _FLOAT_OPS[expr.op], dest, lhs, rhs))
            elif expr.op in _INT_OPS:
                self.region.op(partial(_op_int, _INT_OPS[expr.op], dest, lhs, rhs))
            else:
                self._refuse(f"unknown operator {expr.op!r}")
            return dest
        if cls is Compare:
            lhs = self._operand(expr.lhs, expr.rhs, env, stack)
            rhs = self._expr(expr.rhs, env, stack)
            dest = self._bool_slot()
            if expr.op in _COMPARE_OPS:
                self.region.op(partial(_op2, _COMPARE_OPS[expr.op], dest, lhs, rhs))
            else:
                self._refuse(f"unknown comparison {expr.op!r}")
            return dest
        if cls is UnOp:
            src = self._expr(expr.operand, env, stack)
            if expr.op == "not":
                dest = self._bool_slot()
                self.region.op(partial(_op_not, dest, *self._truth(src)))
                return dest
            dest = self._new_slot()
            if expr.op == "fneg":
                self.region.op(partial(_op_fneg, dest, src))
            elif expr.op == "ineg":
                self.region.op(partial(_op_ineg, dest, src))
            else:
                self._refuse(f"unknown unary operator {expr.op!r}")
            return dest
        if cls is Ternary:
            return self._ternary(expr, env, stack)
        if cls is Call:
            return self._call(expr, env, stack)
        if cls is ArrayIndex:
            table = self.arrays.get(expr.name)
            if table is None:
                raise BatchCompilationError(f"unknown constant array {expr.name!r}")
            index = self._expr(expr.index, env, stack)
            dest = self._new_slot()
            self.region.op(partial(_op_gather, table, expr.name, dest, index))
            return dest
        if cls is InLabelSet:
            dest = self._bool_slot()
            self.region.op(partial(_op_member, dest, expr.set_name, expr.label))
            return dest
        raise BatchCompilationError(f"unknown expression {expr!r}")

    def _snapshot(self, slot: int, later) -> int:
        """``slot``, copied first when it names a variable that a later
        sibling operand can assign (left-to-right effect order)."""
        if slot in self.named_slots and any(
            _contains_user_call(e, self.functions) for e in later
        ):
            fresh = self._new_slot()
            self.region.op(partial(_op_copy, fresh, slot))
            return fresh
        return slot

    def _operand(self, expr: Expr, later: Expr, env: Dict[str, int], stack) -> int:
        return self._snapshot(self._expr(expr, env, stack), (later,))

    def _boolop(self, expr: BinOp, env: Dict[str, int], stack) -> int:
        if _select_safe(expr.lhs, self.functions) and _select_safe(
            expr.rhs, self.functions
        ):
            lhs = self._expr(expr.lhs, env, stack)
            rhs = self._expr(expr.rhs, env, stack)
            dest = self._bool_slot()
            ufunc = np.bitwise_and if expr.op == "and" else np.bitwise_or
            op = partial(_op_bool, ufunc, dest, self._truth(lhs), self._truth(rhs))
            self.region.op(op)
            return dest
        # Desugar to the short-circuit form so unsafe operands only run
        # on the lanes the scalar tiers would run them on:
        #   a and b  ==  a ? bool(b) : False
        #   a or b   ==  a ? True : bool(b)
        to_bool = lambda e: UnOp("not", UnOp("not", e))  # noqa: E731
        if expr.op == "and":
            desugared = Ternary(expr.lhs, to_bool(expr.rhs), Const(False))
        else:
            desugared = Ternary(expr.lhs, Const(True), to_bool(expr.rhs))
        return self._ternary(desugared, env, stack)

    def _ternary(self, expr: Ternary, env: Dict[str, int], stack) -> int:
        if _select_safe(expr.then, self.functions) and _select_safe(
            expr.orelse, self.functions
        ):
            cond = self._expr(expr.cond, env, stack)
            then = self._expr(expr.then, env, stack)
            orelse = self._expr(expr.orelse, env, stack)
            dest = self._new_slot()
            op = partial(_op_select, *self._truth(cond), dest, then, orelse)
            self.region.op(op)
            return dest
        # Unsafe arms run under a branch so only the lanes that select
        # an arm evaluate it (array bounds, idiv-by-zero, calls).
        result = self._new_slot(named=True)
        cond = self._expr(expr.cond, env, stack)
        self._if(
            cond,
            self._arm(self._store, result, expr.then, env, stack),
            self._arm(self._store, result, expr.orelse, env, stack),
        )
        return result

    def _store(self, slot: int, expr: Expr, env: Dict[str, int], stack) -> None:
        src = self._expr(expr, env, stack)
        self.region.op(partial(_op_store, slot, src))

    def _call(self, expr: Call, env: Dict[str, int], stack) -> int:
        args = tuple(
            self._snapshot(self._expr(arg, env, stack), expr.args[pos + 1 :])
            for pos, arg in enumerate(expr.args)
        )
        fn = self.functions.get(expr.func)
        if fn is not None:
            if expr.func in stack:
                raise BatchCompilationError(
                    f"recursive call to {expr.func!r} cannot be lowered"
                )
            if len(args) != len(fn.params):
                raise BatchCompilationError(
                    f"{expr.func} expects {len(fn.params)} args, got {len(args)}"
                )
            return self._call_body(fn, args, stack + (expr.func,))
        if expr.func in REJECTED_EXTERNALS:
            raise BatchCompilationError(
                f"external {expr.func!r} exceeds the int64 lane range"
            )
        if not externals.is_registered(expr.func):
            raise BatchCompilationError(f"unknown external {expr.func!r}")
        vector = _calibrate(expr.func)
        dest = self._new_slot()
        if vector is None:
            self.region.op(partial(_op_lanewise, expr.func, dest, args))
        elif len(args) == 1:
            self.region.op(partial(_op_vector1, vector, dest, args[0]))
        else:
            self.region.op(partial(_op_vector, vector, dest, args))
        return dest


# -- straight-line ops: bound by partial(), then op(slots, live, run) ---------


def _truth_of(slots, truth):
    slot, is_bool = truth
    return slots[slot] if is_bool else _as_bool(slots[slot])


def _op2(ufunc, dest, lhs, rhs, slots, live, run):
    slots[dest] = ufunc(slots[lhs], slots[rhs])


def _op_int(fn, dest, lhs, rhs, slots, live, run):
    slots[dest] = fn(_lane_int(slots[lhs], live), _lane_int(slots[rhs], live), live)


def _op_store(slot, src, slots, live, run):
    # Lanes outside the mask keep their value; the first store a slot
    # sees initializes every lane (a lane that reads a named variable
    # before its own store would be an undefined-variable error in the
    # scalar tiers).
    cur = slots[slot]
    slots[slot] = slots[src] if cur is None else _where(live, slots[src], cur)


def _op_copy(dest, src, slots, live, run):
    slots[dest] = slots[src]


def _op_select(cond, is_bool, dest, then, orelse, slots, live, run):
    mask = slots[cond] if is_bool else _as_bool(slots[cond])
    slots[dest] = _where(mask, slots[then], slots[orelse])


def _op_fneg(dest, src, slots, live, run):
    value = slots[src]
    if value.dtype == np.bool_:
        value = value.astype(np.int64)
    slots[dest] = -value


def _op_ineg(dest, src, slots, live, run):
    value = _lane_int(slots[src], live)
    _fault_if(live & (value == _INT64_MIN), "int64 overflow in ineg")
    slots[dest] = -value


def _op_not(dest, src, is_bool, slots, live, run):
    value = slots[src]
    slots[dest] = ~(value if is_bool else _as_bool(value))


def _op_bool(ufunc, dest, lhs, rhs, slots, live, run):
    slots[dest] = ufunc(_truth_of(slots, lhs), _truth_of(slots, rhs))


def _op_vector1(fn, dest, arg, slots, live, run):
    # Every candidate returns an ndarray for ndarray lanes.
    slots[dest] = fn(slots[arg])


def _op_vector(fn, dest, args, slots, live, run):
    slots[dest] = fn(*[slots[a] for a in args])


def _op_lanewise(name, dest, args, slots, live, run):
    # Uncalibrated external: apply the registered scalar external to the
    # live lanes only (exact by construction, slower).  Looked up per
    # call, since a registration may be overwritten.
    fn = externals.lookup(name)
    arrays = [slots[a] for a in args]
    idx = np.nonzero(live)[0]
    values = np.asarray([fn(*(a[i].item() for a in arrays)) for i in idx])
    if values.dtype == object:
        raise BatchExecutionError(f"external {name!r} returned non-numeric values")
    out = np.zeros(live.shape[0], dtype=values.dtype)
    out[idx] = values
    slots[dest] = out


def _op_gather(table, name, dest, index, slots, live, run):
    idx = _lane_int(slots[index], live)
    size = len(table)
    _fault_if(
        live & ((idx < 0) | (idx >= size)),
        f"index out of range for array {name!r}",
    )
    slots[dest] = table[np.clip(idx, 0, size - 1)]


def _op_member(dest, set_name, label, slots, live, run):
    # Label sets are read at call time: Algorithm 3 grows them between
    # batches (never during one), so the probe is lane-constant.
    members = run.sets.get(set_name) or ()
    slots[dest] = run.true if label in members else run.false


# -- control ops -------------------------------------------------------------
#
# The reference semantics re-derive ``live = mask & ~stopped &
# ~returned`` and test it for emptiness before every operation.  Inside
# a region that mask only shrinks, and only a control op can shrink it.
# So a branch re-derives it only when its arms can stop lanes (a Halt or
# a loop budget) or return from the current frame — a static fact the
# lowering records — and frames and loops always check.  Stopping and
# returning assign fresh ``alive``/``ret_alive`` arrays, so a check that
# finds both objects unchanged skips the re-derivation and the emptiness
# test.  After Halt or Return no lane is left in the region, whose rest
# the lowering emits nothing for.


def _narrow(live, run, alive, frame_id, ret_alive):
    """``live`` minus the lanes stopped or returned since ``alive`` and
    ``ret_alive`` were read; None when no lane is left."""
    now_alive, now_ret = run.alive, run.ret_alive[frame_id]
    if now_alive is alive and now_ret is ret_alive:
        return live
    live = live & now_alive & now_ret
    return live if _count(live) else None


def _branch(truth, then_r, else_r, frame_id, track):
    cond_slot, is_bool = truth

    def ctl(slots, live, run):
        if track:
            alive, ret_alive = run.alive, run.ret_alive[frame_id]
        # Read the condition once: an arm may store to a named cond slot.
        cond = slots[cond_slot]
        if not is_bool:
            cond = _as_bool(cond)
        if then_r:
            mask = live & cond
            if _count(mask):
                _exec(then_r, slots, mask, run)
            if else_r:
                mask = live ^ mask  # live & ~cond
                if _count(mask):
                    _exec(else_r, slots, mask, run)
        else:
            mask = live & ~cond
            if _count(mask):
                _exec(else_r, slots, mask, run)
        if track:
            return _narrow(live, run, alive, frame_id, ret_alive)
        return live

    return ctl


def _loop(truth, cond_r, body_r, frame_id):
    def ctl(slots, live, run):
        steps = run.loop_steps
        alive, ret_alive = run.alive, run.ret_alive[frame_id]
        active = live
        while True:
            # A helper call in the condition can stop every lane before
            # the condition slot is written: check before reading it.
            before, before_ret = run.alive, run.ret_alive[frame_id]
            _exec(cond_r, slots, active, run)
            active = _narrow(active, run, before, frame_id, before_ret)
            if active is None:
                break
            active = active & _truth_of(slots, truth)
            if not _count(active):
                break
            steps += active  # one budget unit per lane entering the body
            over = active & (steps > run.max_loop_steps)
            if _count(over):
                run.alive = run.alive ^ over  # over is a subset of alive
                run.exhausted = run.exhausted | over
                active = active ^ over
                if not _count(active):
                    break
            before, before_ret = run.alive, run.ret_alive[frame_id]
            _exec(body_r, slots, active, run)
            active = _narrow(active, run, before, frame_id, before_ret)
            if active is None:
                break
        return _narrow(live, run, alive, frame_id, ret_alive)

    return ctl


def _frame(body, frame_id, tracked, outer_id):
    def ctl(slots, live, run):
        alive, ret_alive = run.alive, run.ret_alive[outer_id]
        if tracked:
            run.ret_alive[frame_id] = run.true
        _exec(body, slots, live, run)
        return _narrow(live, run, alive, outer_id, ret_alive)

    return ctl


def _return(src, frame, nested):
    frame_id, ret = frame

    def ctl(slots, live, run):
        if src is not None:
            cur = slots[ret]
            slots[ret] = slots[src] if cur is None else _where(live, slots[src], cur)
        if nested:
            # live is a subset of ret_alive: xor clears exactly those lanes.
            run.ret_alive[frame_id] = run.ret_alive[frame_id] ^ live
        return None

    return ctl


def _halt(slots, live, run):
    run.alive = run.alive ^ live  # live is a subset of alive
    run.halted = run.halted | live
    return None


class BatchProgram:
    """Executable form of a lowered FPIR program.

    Build once per program: lowering to regions of pre-bound ops,
    external calibration and constant checks happen here.
    Then call :meth:`run` for every batch — the worker payload cache
    keeps one instance per program digest, so warm sessions pay for
    lowering exactly once.  Constants are broadcast once per batch size
    into a read-only slot template that each call copies.
    """

    def __init__(self, program: Program) -> None:
        lowering = _Lowerer(program)
        self._root, self._param_slots, self._result_slot = lowering.lower()
        for init in program.globals.values():
            _check_int64(init, "global initial value")
        self._entry = program.entry
        self._n_slots = lowering.n_slots
        self._n_frames = lowering.n_frames
        self._global_slots = lowering.global_slots
        self._slot_values = list(lowering.consts.items()) + [
            (slot, _global_init(program.globals[name]))
            for name, slot in lowering.global_slots.items()
        ]
        self._templates: Dict[int, Tuple[list, np.ndarray, np.ndarray]] = {}

    def _template(self, n: int) -> Tuple[list, np.ndarray, np.ndarray]:
        """Slots with every constant and global initial value broadcast
        to ``n`` lanes (read-only), plus all-true/all-false masks."""
        template = self._templates.get(n)
        if template is None:
            if len(self._templates) >= _TEMPLATES_KEPT:
                self._templates.clear()
            shared: Dict[Tuple[str, Any], np.ndarray] = {}
            slots: list = [None] * self._n_slots
            for slot, value in self._slot_values:
                key = _value_key(value)
                arr = shared.get(key)
                if arr is None:
                    arr = shared[key] = _frozen(_lane_array(value, n))
                slots[slot] = arr
            template = (
                slots,
                _frozen(np.ones(n, dtype=bool)),
                _frozen(np.zeros(n, dtype=bool)),
            )
            self._templates[n] = template
        return template

    # -- public entry --------------------------------------------------------

    def run(
        self,
        X: np.ndarray,
        label_sets: Optional[Dict[str, set]] = None,
        max_loop_steps: int = 2_000_000,
    ) -> BatchResult:
        """Execute every row of ``X`` in its own lane."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected an (N, d) batch, got shape {X.shape}")
        if X.shape[1] != len(self._param_slots):
            raise BatchExecutionError(
                f"{self._entry} expects {len(self._param_slots)} args, "
                f"got {X.shape[1]}"
            )
        n = X.shape[0]
        template, true, false = self._template(n)
        slots = list(template)
        for i, slot in enumerate(self._param_slots):
            slots[slot] = X[:, i].copy()
        run = _Run()
        run.alive = true
        run.halted = run.exhausted = false
        run.loop_steps = np.zeros(n, dtype=np.int64)
        run.max_loop_steps = max_loop_steps
        run.ret_alive = [true] * self._n_frames
        run.sets = label_sets or {}
        run.true, run.false = true, false
        if n:
            try:
                with np.errstate(all="ignore"):
                    _exec(self._root, slots, true, run)
            except BatchExecutionError:
                raise
            except Exception as exc:  # malformed lanes (None slots, dtypes)
                raise BatchExecutionError(f"batch evaluation failed: {exc}") from exc
        values = slots[self._result_slot]
        if values is None and n == 0:
            # An empty batch runs no lane, so nothing ever stored to
            # the result slot; keep the contract array-shaped anyway.
            values = np.empty(0, dtype=np.float64)
        return BatchResult(
            values=values,
            globals={name: slots[slot] for name, slot in self._global_slots.items()},
            halted=run.halted,
            exhausted=run.exhausted,
        )


def compile_batch(program: Program) -> BatchProgram:
    """Lower ``program`` and wrap it for batched evaluation.

    Raises :class:`BatchCompilationError` when the program uses a
    construct the batched tier refuses (see the module docstring);
    callers fall back to a scalar tier.
    """
    return BatchProgram(program)
