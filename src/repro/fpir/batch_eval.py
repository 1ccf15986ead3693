"""NumPy masked-lane evaluation of lowered FPIR instruction streams.

This is the execution half of the batched weak-distance tier: a
:class:`BatchProgram` wraps a :class:`repro.fpir.vm.VMProgram` and
scores an ``(N, d)`` block of candidate points in one call, giving each
point its own *lane* of every slot array.  Control flow becomes mask
algebra: a ``Branch`` runs its arms under ``mask & cond`` and
``mask & ~cond``, a ``Loop`` keeps iterating while any lane's condition
holds, ``Halt``/``Return`` retire lanes from their scope, and stores to
named variables merge through ``np.where`` so retired or diverged lanes
keep their values.

Building a :class:`BatchProgram` threads the stream once: each
``[start, end)`` range becomes a region of pre-bound operations (a
``functools.partial`` per instruction, its ufunc and operand slots
resolved), nested under the control operations that own it.  A call
then runs straight-line instructions back to back and re-tests the
live-lane mask only where a ``Halt``, a ``Return`` or a loop budget can
have changed it.  Constants and global initial values are broadcast
once per batch size into a read-only slot template that each call
copies.

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
  cannot fault (see :func:`repro.fpir.vm._select_safe`); faultable
  expressions run under branch masks instead.
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
from repro.fpir.vm import (
    BatchCompilationError,
    BinaryInstr,
    BoolInstr,
    Branch,
    CompareInstr,
    CopySlot,
    EventInstr,
    ExternalInstr,
    Frame,
    GatherInstr,
    HaltInstr,
    LoadConst,
    Loop,
    ReturnInstr,
    SelectInstr,
    SetMemberInstr,
    StoreSlot,
    UnaryInstr,
    VMProgram,
    lower_program,
)
from repro.fpir.program import Program

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
    xf = np.asarray(x, dtype=np.float64)
    yf = np.asarray(y, dtype=np.float64)
    out = np.power(xf, yf)
    # math.pow raises ValueError for 0.0 ** negative-finite (c_pow maps
    # it to NaN) where C99/np.power give ±inf.
    return np.where((xf == 0.0) & (yf < 0) & np.isfinite(yf), np.nan, out)


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
    ref_arr = np.asarray(ref)
    if vec.shape != ref_arr.shape:
        return False
    if vec.dtype == np.float64 and ref_arr.dtype == np.float64:
        both_nan = np.isnan(vec) & np.isnan(ref_arr)
        same = vec.view(np.uint64) == ref_arr.view(np.uint64)
        return bool(np.all(same | both_nan))
    try:
        return bool(np.all(vec == ref_arr)) and vec.dtype == ref_arr.dtype
    except Exception:
        return False


def _calibrate(name: str) -> Optional[Callable]:
    """The admitted vector implementation for ``name``, or None.

    Deterministic per process: the probe set is fixed-seeded, so an
    external either always vectorizes on a given platform or never
    does — reproducibility is never platform-rounding-dependent.
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
                    vec = candidate(probes)
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
                    vec = candidate(a, b)
                    ref = [
                        scalar(x.item(), y.item()) for x, y in zip(a, b)
                    ]
            if _bits_equal(np.asarray(vec), ref):
                result = candidate
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

_FLOAT_OPS: Dict[str, Callable] = {
    "fadd": np.add,
    "fsub": np.subtract,
    "fmul": np.multiply,
    "fdiv": np.true_divide,
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


class _Threader:
    """Build step: the flat VM stream as nested regions of pre-bound ops.

    One pass over ``vm.code`` collects what does not depend on control
    flow (constants, boolean-typed slots, calibrated externals);
    :meth:`region` then threads each ``[start, end)`` range.
    Alongside each region it reports two static facts the runner uses to
    skip liveness tests: whether the region can stop lanes (a ``Halt`` or
    a ``Loop`` budget, also inside inlined helpers) and whether it holds a
    ``Return`` from the current frame nested in a branch or loop.
    """

    def __init__(self, vm: VMProgram) -> None:
        self.code = vm.code
        self.arrays = {
            name: np.asarray(values, dtype=np.float64)
            for name, values in vm.arrays.items()
        }
        self.consts: Dict[int, Any] = {}
        self.bool_slots: set = set()
        self.vector: Dict[str, Optional[Callable]] = {}
        self.n_frames = 1
        for instr in vm.code:
            cls = instr.__class__
            if cls is LoadConst:
                _check_int64(instr.value, "constant")
                self.consts[instr.dest] = instr.value
            elif cls is ExternalInstr:
                if instr.name not in self.vector:
                    self.vector[instr.name] = _calibrate(instr.name)
            elif (
                cls is CompareInstr
                or cls is BoolInstr
                or cls is SetMemberInstr
                or (cls is UnaryInstr and instr.op == "not")
            ):
                self.bool_slots.add(instr.dest)

    def _truth(self, slot: int) -> Tuple[int, bool]:
        """``(slot, is_bool)``: ops skip ``_as_bool`` where the stream
        makes the slot boolean."""
        return slot, slot in self.bool_slots

    # -- regions -------------------------------------------------------------

    def region(
        self, start: int, end: int, frame: Tuple[int, int], nested: bool
    ) -> Tuple[Region, bool, bool]:
        """Thread ``[start, end)`` of ``frame = (id, ret_slot)``.

        Returns ``(region, stops, returns)``: ``stops`` when lanes can be
        stopped inside, ``returns`` when a ``Return`` from ``frame``
        inside must be recorded in the frame's mask (``nested`` tells
        whether this range already sits in a branch or loop of it).
        """
        code = self.code
        segments: List[Tuple[Tuple[Callable, ...], Optional[Callable]]] = []
        ops: List[Callable] = []
        stops = returns = False
        pc = start
        while pc < end:
            instr = code[pc]
            cls = instr.__class__
            if cls is Branch:
                then_r, s1, r1 = self.region(pc + 1, instr.else_start, frame, True)
                else_r, s2, r2 = self.region(instr.else_start, instr.join, frame, True)
                pc = instr.join
                if not then_r and not else_r:
                    continue
                track = s1 or s2 or r1 or r2
                ctl = _branch(self._truth(instr.cond), then_r, else_r, frame[0], track)
                stops = stops or s1 or s2
                returns = returns or r1 or r2
            elif cls is Loop:
                cond_r, _, _ = self.region(pc + 1, instr.cond_end, frame, True)
                body_r, _, body_returns = self.region(
                    instr.cond_end, instr.end, frame, True
                )
                pc = instr.end
                ctl = _loop(self._truth(instr.cond), cond_r, body_r, frame[0])
                stops = True
                returns = returns or body_returns
            elif cls is Frame:
                inner = (self.n_frames, instr.ret)
                self.n_frames += 1
                body, body_stops, tracked = self.region(pc + 1, instr.end, inner, False)
                pc = instr.end
                ctl = _frame(body, inner[0], tracked, frame[0])
                stops = stops or body_stops
            elif cls is ReturnInstr:
                ctl = _return(instr.src, frame, nested)
                returns = returns or nested
                pc = end  # the rest of the range is dead
            elif cls is HaltInstr:
                ctl = _halt
                stops = True
                pc = end
            else:
                op = self._op(instr, cls)
                if op is not None:
                    ops.append(op)
                pc += 1
                continue
            segments.append((tuple(ops), ctl))
            ops = []
        if ops:
            segments.append((tuple(ops), None))
        return tuple(segments), stops, returns

    # -- straight-line ops ---------------------------------------------------

    def _op(self, instr, cls) -> Optional[Callable]:
        """The pre-bound op for one straight-line instruction, or None
        when it has no run-time work (constants live in the per-size
        slot template; events are scalar-replay only)."""
        if cls is LoadConst or cls is EventInstr:
            return None
        if cls is BinaryInstr:
            ufunc = _FLOAT_OPS.get(instr.op)
            if ufunc is not None:
                return partial(_op2, ufunc, instr.dest, instr.lhs, instr.rhs)
            fn = _INT_OPS.get(instr.op)
            if fn is None:
                raise BatchCompilationError(f"unknown operator {instr.op!r}")
            return partial(_op_int, fn, instr.dest, instr.lhs, instr.rhs)
        if cls is CompareInstr:
            ufunc = _COMPARE_OPS.get(instr.op)
            if ufunc is None:
                raise BatchCompilationError(f"unknown comparison {instr.op!r}")
            return partial(_op2, ufunc, instr.dest, instr.lhs, instr.rhs)
        if cls is StoreSlot:
            return partial(_op_store, instr.slot, instr.src)
        if cls is CopySlot:
            return partial(_op_copy, instr.dest, instr.src)
        if cls is SelectInstr:
            cond, is_bool = self._truth(instr.cond)
            return partial(
                _op_select, cond, is_bool, instr.dest, instr.then, instr.orelse
            )
        if cls is UnaryInstr:
            if instr.op == "fneg":
                return partial(_op_fneg, instr.dest, instr.src)
            if instr.op == "ineg":
                return partial(_op_ineg, instr.dest, instr.src)
            if instr.op == "not":
                return partial(_op_not, instr.dest, *self._truth(instr.src))
            raise BatchCompilationError(f"unknown unary operator {instr.op!r}")
        if cls is BoolInstr:
            ufunc = np.bitwise_and if instr.op == "and" else np.bitwise_or
            return partial(
                _op_bool,
                ufunc,
                instr.dest,
                self._truth(instr.lhs),
                self._truth(instr.rhs),
            )
        if cls is ExternalInstr:
            vector = self.vector[instr.name]
            if vector is None:
                return partial(_op_lanewise, instr.name, instr.dest, instr.args)
            if len(instr.args) == 1:
                return partial(_op_vector1, vector, instr.dest, instr.args[0])
            return partial(_op_vector, vector, instr.dest, instr.args)
        if cls is GatherInstr:
            table = self.arrays[instr.array]
            return partial(_op_gather, table, instr.array, instr.dest, instr.index)
        if cls is SetMemberInstr:
            return partial(_op_member, instr.dest, instr.set_name, instr.label)
        raise BatchCompilationError(f"unknown instruction {instr!r}")


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
    # sees initializes every lane (see vm.StoreSlot).
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
# ~returned`` and test it for emptiness before every instruction.  Inside
# a range that mask only shrinks, and only a control op can shrink it.
# So a Branch re-derives it only when its arms can stop lanes (a Halt or
# a Loop budget) or return from the current frame — a static fact of
# the stream — and Frames and Loops always check.  Stopping and
# returning assign fresh ``alive``/``ret_alive`` arrays, so a check that
# finds both objects unchanged skips the re-derivation and the emptiness
# test.  After Halt or Return no lane is left in the range, which the
# threader has already cut short.


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

    Build once per program: external calibration, constant checks and
    threading the stream into regions of pre-bound ops happen here.
    Then call :meth:`run` for every batch — the worker payload cache
    keeps one instance per program digest, so warm sessions pay for
    lowering exactly once.  Constants are broadcast once per batch size
    into a read-only slot template that each call copies.
    """

    def __init__(self, vm: VMProgram) -> None:
        threader = _Threader(vm)
        self._root, _, _ = threader.region(
            0, len(vm.code), (0, vm.result_slot), nested=False
        )
        for init in vm.global_inits.values():
            _check_int64(init, "global initial value")
        self._entry = vm.entry
        self._n_slots = vm.n_slots
        self._n_frames = threader.n_frames
        self._param_slots = vm.param_slots
        self._result_slot = vm.result_slot
        self._global_slots = dict(vm.global_slots)
        self._slot_values = list(threader.consts.items()) + [
            (slot, _global_init(vm.global_inits[name]))
            for name, slot in vm.global_slots.items()
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

    Raises :class:`repro.fpir.vm.BatchCompilationError` when the
    program cannot be lowered; see :mod:`repro.fpir.vm`.
    """
    return BatchProgram(lower_program(program))
