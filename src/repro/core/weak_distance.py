"""Weak distances (paper Definition 3.1).

A weak distance for ⟨Prog; S⟩ is a *program* ``W : dom(Prog) → F`` with

  (a) ``W(x) >= 0`` for all x,
  (b) ``W(x) == 0  ⇒  x ∈ S``,
  (c) ``x ∈ S  ⇒  W(x) == 0``.

Here a weak distance is an instrumented FPIR program plus the recipe
for reading the value of the instrumented variable ``w`` back out.  It
can execute through the compiler (fast path, default), the reference
interpreter, or — for whole populations at once — the batched
vectorized tier (:mod:`repro.fpir.batch_eval`), and exposes the runtime
label sets so stateful analyses (Algorithm 3's set ``L``, branch
coverage's set ``B``) can evolve the distance between minimization
rounds without re-instrumenting.

``eval_mode`` selects the tier: ``"compiled"`` (default) and
``"interpreter"`` are the scalar tiers; ``"vectorized"`` additionally
exposes :meth:`WeakDistance.evaluate_batch`, which scores an ``(N, d)``
batch in one NumPy call with bit-parity to the scalar tiers (programs
the batch tier cannot lower fall back to a scalar loop transparently,
so ``evaluate_batch`` is always safe to call).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.fpir import externals
from repro.fpir.compiler import CompiledProgram, CompiledRuntime, compile_program
from repro.fpir.instrument import InstrumentedProgram
from repro.fpir.interpreter import (
    ExecutionContext,
    ExecutionResult,
    HaltExecution,
    Interpreter,
    StepLimitExceeded,
)
from repro.util.digest import content_digest

#: Valid ``eval_mode`` values, in documentation order.
EVAL_MODES = ("compiled", "interpreter", "vectorized")


class WeakDistance:
    """An executable weak distance W built from an instrumented program."""

    def __init__(
        self,
        instrumented: InstrumentedProgram,
        exact: bool = False,
        max_loop_steps: int = 2_000_000,
        eval_mode: Optional[str] = None,
    ) -> None:
        """``exact=True`` evaluates W's elementary FP operations over
        exact rationals (:mod:`repro.fpir.exact`) — the paper's §5.2
        higher-precision option, eliminating Limitation-2 rounding
        artifacts in W at ~10× interpreter cost.  Implies the
        interpreter backend.

        ``eval_mode`` (``"compiled"``/``"interpreter"``/``"vectorized"``,
        ``None`` = ``"compiled"``) selects the tier; ``"vectorized"``
        keeps the compiled scalar path for single-point calls and adds
        the batched kernel for :meth:`evaluate_batch`.  ``exact``
        always forces the (exact) interpreter and disables batching.
        """
        if eval_mode is None:
            eval_mode = "compiled"
        if eval_mode not in EVAL_MODES:
            raise ValueError(
                f"unknown eval_mode {eval_mode!r}; expected one of "
                f"{EVAL_MODES}"
            )
        self.instrumented = instrumented
        self.program = instrumented.program
        self.w_var = instrumented.w_var
        self.exact = exact
        self.eval_mode = eval_mode
        self.use_compiler = eval_mode != "interpreter" and not exact
        self._compiled: Optional[CompiledProgram] = None
        self._interpreter: Optional[Interpreter] = None
        self._runtime = None
        self._batch_program = None
        self._batch_unavailable = False
        self.max_loop_steps = max_loop_steps
        #: Runtime label sets shared across evaluations (e.g. L, B).
        self.label_sets: Dict[str, Set[str]] = {
            name: set() for name in instrumented.spec.label_sets
        }
        #: Events observed during the most recent evaluation.
        self.last_events: Dict[str, str] = {}
        self._digest: Optional[str] = None

    def __reduce__(self):
        """Pickle the program, the executor settings, and (by reference)
        the externals the program calls that FPIR does not register
        itself (:func:`repro.fpir.externals.carried`), which unpickling
        registers: a pool worker forked before the parent imported
        ``repro.gsl.hyperg`` can still run its W.

        Label sets, compiled code, ``last_events`` and the digest memo
        are per-process state: an unpickled W starts with empty label
        sets and compiles lazily, and a pool task ships the parent's
        label sets next to it
        (:func:`repro.core.parallel.sync_label_state`).
        """
        return (
            _unpickle,
            (
                externals.carried(self.program),
                self.instrumented,
                self.exact,
                self.max_loop_steps,
                self.eval_mode,
            ),
        )

    @property
    def digest(self) -> str:
        """W's :func:`~repro.util.digest.content_digest`: the program
        and the executor settings :meth:`__reduce__` pickles, label
        sets excluded.  Computed once per object (a large program takes
        milliseconds to digest) and read by every consumer that keys
        on W's identity: the pool's program cache and the session's
        round-outcome cache (:func:`repro.core.parallel.round_key`).
        """
        if self._digest is None:
            self._digest = content_digest(self)
        return self._digest

    # -- execution ------------------------------------------------------------

    def _ensure_compiled(self) -> CompiledProgram:
        if self._compiled is None:
            self._compiled = compile_program(self.program)
        return self._compiled

    def _ensure_runtime(self) -> CompiledRuntime:
        if self._runtime is None:
            self._runtime = self._ensure_compiled().new_runtime(self.max_loop_steps)
            self._runtime.sets = self.label_sets
            # Plain evaluations count nothing; :meth:`replay` counts.
            self._runtime.counters = None
        return self._runtime

    def execute(self, x: Sequence[float]) -> ExecutionResult:
        """Run the instrumented program on ``x`` and return the raw result."""
        if self.use_compiler:
            rt = self._ensure_runtime()
            rt.events = {}
            result = self._compiled.run(x, rt=rt)
        else:
            result = self._interpret(x)
        self.last_events = dict(result.events)
        return result

    def _make_interpreter(self) -> Interpreter:
        if self.exact:
            from repro.fpir.exact import ExactInterpreter

            return ExactInterpreter(self.program)
        return Interpreter(self.program)

    def _interpret(self, x: Sequence[float]) -> ExecutionResult:
        if self._interpreter is None:
            self._interpreter = self._make_interpreter()
        ctx = ExecutionContext(
            label_sets=self.label_sets,
            max_steps=self.max_loop_steps,
        )
        return self._interpreter.run(x, ctx)

    def __call__(self, x: Sequence[float]) -> float:
        """Evaluate W(x): the final value of ``w`` (inf when the run
        diverges past the step budget or ``w`` ends up NaN)."""
        if self.use_compiler:
            # The hot path: :meth:`execute` without its result record.
            rt = self._runtime or self._ensure_runtime()
            rt.g.update(self.program.globals)
            rt.loop_steps = 0
            rt.events = events = {}
            try:
                self._compiled.entry(rt, *x)
            except HaltExecution:
                pass
            except StepLimitExceeded:
                return math.inf
            self.last_events = events
            try:
                value = float(rt.g.get(self.w_var, math.inf))
            except (TypeError, ValueError, OverflowError):
                return math.inf
            return math.inf if value != value else value
        try:
            raw = self.execute(x).globals.get(self.w_var, math.inf)
        except StepLimitExceeded:
            return math.inf
        exact_nonzero = False
        if self.exact:
            from fractions import Fraction

            if isinstance(raw, Fraction):
                exact_nonzero = raw != 0
        try:
            value = float(raw)
        except (TypeError, ValueError, OverflowError):
            return math.inf
        if value != value:  # NaN
            return math.inf
        if value == 0.0 and exact_nonzero:
            # The exact value is strictly positive but below the
            # smallest subnormal: report the smallest positive double
            # so the zero test stays exact (Def. 3.1b in exact mode).
            return 5e-324
        return value

    # -- batched evaluation ---------------------------------------------------

    @property
    def supports_batch(self) -> bool:
        """True when :meth:`evaluate_batch` runs the vectorized kernel.

        Requires ``eval_mode="vectorized"`` *and* a program the batch
        tier can lower; checking is lazy and cached, so the first call
        pays for lowering.  When False, ``evaluate_batch`` still works
        via a scalar loop.
        """
        return self._ensure_batch_program() is not None

    def _ensure_batch_program(self):
        if (
            self.eval_mode != "vectorized"
            or self.exact
            or self._batch_unavailable
        ):
            return self._batch_program
        if self._batch_program is None:
            from repro.fpir.batch_eval import BatchCompilationError, compile_batch

            try:
                self._batch_program = compile_batch(self.program)
            except BatchCompilationError:
                self._batch_unavailable = True
        return self._batch_program

    def evaluate_batch(self, X: Sequence[Sequence[float]]) -> np.ndarray:
        """W over an ``(N, d)`` batch, one value per row.

        Bit-identical to ``[self(x) for x in X]`` (the parity contract
        of :mod:`repro.fpir.batch_eval`): per lane, a NaN ``w`` or an
        exceeded loop budget reads as ``inf``.  Programs the batch tier
        cannot lower — or batches it rejects at runtime — are evaluated
        by exactly that scalar loop instead, so callers never need to
        special-case.  Unlike scalar calls, a batch run records no
        events or counters (those feed scalar replays).
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            # A flat vector is a column of 1-D points unless the
            # program's arity says it is one multi-dimensional point.
            d = self.program.num_inputs
            X = X.reshape(-1, d if X.size else max(d, 1))
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        batch = self._ensure_batch_program()
        if batch is not None:
            from repro.fpir.batch_eval import BatchExecutionError

            try:
                result = batch.run(
                    X,
                    label_sets=self.label_sets,
                    max_loop_steps=self.max_loop_steps,
                )
            except BatchExecutionError:
                pass
            else:
                w = result.globals.get(self.w_var)
                if w is None:
                    values = np.full(X.shape[0], math.inf)
                else:
                    values = np.asarray(w, dtype=np.float64)
                    values = np.where(np.isnan(values), math.inf, values)
                return np.where(result.exhausted, math.inf, values)
        return np.array([self(x) for x in X], dtype=np.float64)

    def replay(
        self, x: Sequence[float]
    ) -> Tuple[ExecutionResult, Dict[Tuple[str, str], int]]:
        """Execute on ``x`` with *fresh* event counters.

        The verification replays (the paper's ``hits++`` soundness
        check, path verification, coverage collection) need per-run
        counters, while a plain compiled W evaluation keeps none (its
        runtime's ``counters`` is None); this method counts one run.
        """
        if self.use_compiler:
            rt = self._ensure_runtime()
            rt.counters = counters = {}
            try:
                result = self.execute(x)
            finally:
                rt.counters = None
            return result, counters
        ctx = ExecutionContext(
            label_sets=self.label_sets, max_steps=self.max_loop_steps
        )
        if self._interpreter is None:
            self._interpreter = self._make_interpreter()
        result = self._interpreter.run(x, ctx)
        self.last_events = dict(result.events)
        return result, dict(ctx.counters)

    # -- Definition 3.1 law checking -------------------------------------------

    def check_nonnegative(self, samples: Sequence[Sequence[float]]) -> bool:
        """Def. 3.1(a) on a sample set: W(x) >= 0 everywhere."""
        return all(self(x) >= 0.0 for x in samples)

    def check_zero_implies_member(
        self, samples: Sequence[Sequence[float]], membership
    ) -> bool:
        """Def. 3.1(b) on a sample set, given a membership oracle."""
        return all(membership(tuple(x)) for x in samples if self(x) == 0.0)

    def check_member_implies_zero(
        self, samples: Sequence[Sequence[float]], membership
    ) -> bool:
        """Def. 3.1(c) on a sample set, given a membership oracle."""
        return all(self(x) == 0.0 for x in samples if membership(tuple(x)))


def _unpickle(carried, instrumented, exact, max_loop_steps, eval_mode):
    """:meth:`WeakDistance.__reduce__`'s inverse: register the carried
    externals this process lacks, then rebuild W."""
    externals.ensure(carried)
    return WeakDistance(instrumented, exact, max_loop_steps, eval_mode)
