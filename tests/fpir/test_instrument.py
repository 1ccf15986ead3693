"""The generic instrumentation engine."""

from repro.fpir.instrument import InstrumentationSpec, instrument
from repro.fpir.interpreter import run_program
from repro.fpir.nodes import Assign, BinOp, Call, Const, RecordEvent, Var
from repro.fpir.compiler import compile_program


def _w_mul_absdiff(site, cmp):
    diff = BinOp("fsub", cmp.lhs, cmp.rhs)
    return [Assign("w", BinOp("fmul", Var("w"),
                              Call("fabs", (diff,))))]


class TestBasics:
    def test_original_program_untouched(self, fig2_program):
        before = len(list(fig2_program.entry_function.body.stmts))
        spec = InstrumentationSpec(
            w_init=1.0, before_compare=_w_mul_absdiff
        )
        instrument(fig2_program, spec)
        after = len(list(fig2_program.entry_function.body.stmts))
        assert before == after
        assert "w" not in fig2_program.globals

    def test_w_global_added_with_init(self, fig2_program):
        spec = InstrumentationSpec(
            w_init=7.5, before_compare=_w_mul_absdiff
        )
        result = instrument(fig2_program, spec)
        assert result.program.globals["w"] == 7.5

    def test_w_global_collision_renames_program_var(self, fig2_program):
        # The program's own `w` moves aside; the spec keeps its name.
        prog = fig2_program.clone()
        prog.add_global("w", 5.0)
        result = instrument(prog, InstrumentationSpec(
            w_init=1.0, before_compare=_w_mul_absdiff))
        assert result.w_var == "w"
        assert result.renamed == {"w": "w_"}
        assert result.program.globals["w"] == 1.0
        assert result.program.globals["w_"] == 5.0
        out = run_program(result.program, [0.5])
        assert out.globals["w"] == 0.5 * 1.75
        assert out.globals["w_"] == 5.0
        # The original program is untouched by the rename.
        assert prog.globals["w"] == 5.0

    def test_w_local_collision_renames_program_var(self, fig2_program):
        # fig2 assigns a local `y`; asking for w_var="y" must not alias
        # it (Assign writes the global as soon as one exists), so the
        # program's local is alpha-renamed out of the way.
        def hook(site, cmp):
            diff = BinOp("fsub", cmp.lhs, cmp.rhs)
            return [Assign("y", BinOp("fmul", Var("y"),
                                      Call("fabs", (diff,))))]

        result = instrument(
            fig2_program,
            InstrumentationSpec(w_var="y", w_init=1.0,
                                before_compare=hook),
        )
        assert result.w_var == "y"
        assert result.renamed == {"y": "y_"}
        # Same trajectory as the default-name case: the accumulator
        # lands in global `y`, the program's local now runs as `y_`.
        out = run_program(result.program, [0.5])
        assert out.globals["y"] == 0.5 * 1.75

    def test_fresh_name_skips_all_taken_variants(self, fig2_program):
        prog = fig2_program.clone()
        prog.add_global("w", 0.0)
        prog.add_global("w_", 0.0)
        prog.add_global("w_2", 0.0)
        result = instrument(prog, InstrumentationSpec(
            w_init=1.0, before_compare=_w_mul_absdiff))
        assert result.renamed == {"w": "w_3"}
        assert result.program.globals["w"] == 1.0  # the accumulator
        assert set(result.program.globals) == {"w", "w_", "w_2", "w_3"}

    def test_fig7_overflow_instrumentation_admitted(self):
        # fig7-characteristic declares its own global `w`; instrument()
        # renames the program's global so the overflow spec can have
        # the default name (ROADMAP housekeeping item).
        from repro.analyses.overflow import overflow_spec
        from repro.programs import get_program

        program = get_program("fig7-characteristic")
        result = instrument(program, overflow_spec())
        assert result.w_var == "w"
        assert result.renamed == {"w": "w_"}
        assert "w_" in result.program.globals
        out = run_program(result.program, [1.0])
        assert "w" in out.globals

    def test_fig3_semantics(self, fig2_program):
        # W(x) = |x - 1| * |x'^2 - 4|: check a hand-computed value.
        spec = InstrumentationSpec(
            w_init=1.0, before_compare=_w_mul_absdiff
        )
        result = instrument(fig2_program, spec)
        out = run_program(result.program, [0.5])
        # |0.5-1| * |(1.5)^2-4| = 0.5 * 1.75
        assert out.globals["w"] == 0.5 * 1.75

    def test_compare_operands_evaluated_in_pre_state(self, fig2_program):
        # The second injection uses y *before* the second branch runs;
        # at x = 1.0 -> x' = 2.0, y = 4.0 so W = 0 (a boundary).
        spec = InstrumentationSpec(
            w_init=1.0, before_compare=_w_mul_absdiff
        )
        result = instrument(fig2_program, spec)
        assert run_program(result.program, [1.0]).globals["w"] == 0.0


class TestBranchHooks:
    def test_arm_prologue_records_both_arms(self, fig2_program):
        spec = InstrumentationSpec(
            w_init=0.0,
            arm_prologue=lambda site, taken: [
                RecordEvent("arm", f"{site.label}:{'T' if taken else 'F'}")
            ],
        )
        result = instrument(fig2_program, spec)
        compiled = compile_program(result.program)
        rt = compiled.new_runtime()
        compiled.run([0.0], rt=rt)  # both branches true
        assert rt.counters[("arm", "b1:T")] == 1
        assert rt.counters[("arm", "b2:T")] == 1
        compiled.run([10.0], rt=rt)  # both false
        assert rt.counters[("arm", "b1:F")] == 1
        assert rt.counters[("arm", "b2:F")] == 1

    def test_before_branch_in_loops_reexecuted(self):
        from repro.fpir.builder import FunctionBuilder, fadd, lt, num, v
        from repro.fpir.program import Program

        fb = FunctionBuilder("f", params=["n"])
        fb.let("i", num(0.0))
        with fb.while_(lt(v("i"), v("n"))):
            fb.let("i", fadd(v("i"), num(1.0)))
        fb.ret(v("i"))
        prog = Program([fb.build()], entry="f")
        spec = InstrumentationSpec(
            w_init=0.0,
            before_branch=lambda site, stmt: [
                Assign("w", BinOp("fadd", Var("w"), Const(1.0)))
            ],
        )
        result = instrument(prog, spec)
        out = run_program(result.program, [4.0])
        # One pre-loop injection + one per completed iteration:
        # the loop test evaluates 5 times.
        assert out.globals["w"] == 5.0


class TestFpOpHooks:
    def test_probe_after_each_op_requires_normalize(self, bessel_program):
        events = []

        def probe(site, stmt):
            events.append(site.label)
            return [RecordEvent("probe", site.label)]

        spec = InstrumentationSpec(
            w_init=1.0, after_fp_assign=probe, normalize=True
        )
        result = instrument(bessel_program, spec)
        assert len(events) == 23
        out = run_program(result.program, [1.5, 2.0])
        # The last probe executed is the final instruction's.
        assert out.events["probe"] == "l23"

    def test_index_exposed(self, bessel_program):
        spec = InstrumentationSpec(
            w_init=1.0,
            after_fp_assign=lambda s, st: [],
            normalize=True,
        )
        result = instrument(bessel_program, spec)
        assert len(result.index.fp_ops) == 23
        assert result.w_var == "w"
