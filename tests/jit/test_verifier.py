"""Tests for structural kernel verification.

``analysis.structure.check_structure`` collects every finding; the JIT
pipeline (``compile_expression``) runs it on each generated kernel and
raises ``CodegenError`` with the first finding's message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.structure import check_structure
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import codegen, ir
from repro.core.jit.pipeline import JitOptions, compile_expression
from repro.errors import CodegenError

SCHEMA = {"a": DecimalSpec(10, 2), "b": DecimalSpec(8, 1)}


def valid_kernel():
    return compile_expression("a + b * 2", SCHEMA).kernel


def compile_with(kernel, monkeypatch):
    """Run the JIT pipeline with code generation replaced by ``kernel``."""
    monkeypatch.setattr(codegen, "generate_kernel", lambda *args, **kwargs: kernel)
    return compile_expression("a", SCHEMA)


class TestAcceptsGeneratedKernels:
    @pytest.mark.parametrize(
        "expression",
        ["a + b", "a - b", "a * b", "a / b", "-a + 1.5", "a + b + a * (b - 2)"],
    )
    def test_generated_kernels_verify(self, expression):
        kernel = compile_expression(expression, SCHEMA).kernel  # must not raise
        assert check_structure(kernel) == []

    def test_modulo_kernel(self):
        schema = {"x": DecimalSpec(18, 0), "n": DecimalSpec(18, 0)}
        assert check_structure(compile_expression("x * x % n", schema).kernel) == []

    @given(st.sampled_from(["a+b", "a*b+1", "(a-b)*(a+b)", "a/b+a"]))
    @settings(max_examples=10, deadline=None)
    def test_option_variants_verify(self, expression):
        for options in (
            JitOptions(),
            JitOptions(alignment_scheduling=False),
            JitOptions(subexpression_elimination=True),
            JitOptions(constant_construction=False, constant_alignment=False),
        ):
            kernel = compile_expression(expression, SCHEMA, options).kernel
            assert check_structure(kernel) == []


class TestRejectsBrokenKernels:
    def test_undefined_register(self, monkeypatch):
        kernel = valid_kernel()
        kernel.instructions.insert(
            0, ir.AddOp(99, DecimalSpec(4, 0), 50, 51)
        )
        with pytest.raises(CodegenError, match="undefined register"):
            compile_with(kernel, monkeypatch)

    def test_unaligned_addition(self, monkeypatch):
        spec_a = DecimalSpec(6, 2)
        spec_b = DecimalSpec(6, 1)
        kernel = ir.KernelIR(
            name="bad",
            expression_sql="a + b",
            instructions=[
                ir.LoadColumn(0, spec_a, "a"),
                ir.LoadColumn(1, spec_b, "b"),
                ir.AddOp(2, DecimalSpec(7, 2), 0, 1),  # b never aligned
                ir.StoreResult(2, DecimalSpec(7, 2), 2),
            ],
            input_columns={"a": spec_a, "b": spec_b},
            result_spec=DecimalSpec(7, 2),
            register_words=3,
        )
        with pytest.raises(CodegenError, match="not scale-aligned"):
            compile_with(kernel, monkeypatch)

    def test_missing_store(self, monkeypatch):
        kernel = valid_kernel()
        kernel.instructions = [
            i for i in kernel.instructions if not isinstance(i, ir.StoreResult)
        ]
        with pytest.raises(CodegenError, match="exactly one result"):
            compile_with(kernel, monkeypatch)

    def test_wrong_align_exponent(self, monkeypatch):
        spec = DecimalSpec(6, 1)
        kernel = ir.KernelIR(
            name="bad",
            expression_sql="a",
            instructions=[
                ir.LoadColumn(0, spec, "a"),
                ir.Align(1, DecimalSpec(9, 3), 0, 1),  # +1 but scale jumps 2
                ir.StoreResult(1, DecimalSpec(9, 3), 1),
            ],
            input_columns={"a": spec},
            result_spec=DecimalSpec(9, 3),
            register_words=3,
        )
        with pytest.raises(CodegenError, match="Align scale mismatch"):
            compile_with(kernel, monkeypatch)

    def test_overflowing_constant(self, monkeypatch):
        kernel = ir.KernelIR(
            name="bad",
            expression_sql="9999",
            instructions=[
                ir.LoadConst(0, DecimalSpec(2, 0), False, 9999),
                ir.StoreResult(0, DecimalSpec(2, 0), 0),
            ],
            input_columns={},
            result_spec=DecimalSpec(2, 0),
            register_words=1,
        )
        with pytest.raises(CodegenError, match="does not fit"):
            compile_with(kernel, monkeypatch)

    def test_fractional_modulo(self, monkeypatch):
        spec = DecimalSpec(6, 1)
        kernel = ir.KernelIR(
            name="bad",
            expression_sql="a % a",
            instructions=[
                ir.LoadColumn(0, spec, "a"),
                ir.ModOp(1, DecimalSpec(6, 0), 0, 0),
                ir.StoreResult(1, DecimalSpec(6, 0), 1),
            ],
            input_columns={"a": spec},
            result_spec=DecimalSpec(6, 0),
            register_words=2,
        )
        with pytest.raises(CodegenError, match="integer"):
            compile_with(kernel, monkeypatch)

    def test_store_spec_mismatch(self, monkeypatch):
        kernel = valid_kernel()
        kernel.result_spec = DecimalSpec(30, 5)
        with pytest.raises(CodegenError, match="result spec"):
            compile_with(kernel, monkeypatch)


class TestCollectAllFindings:
    def multi_problem_kernel(self):
        spec = DecimalSpec(6, 1)
        return ir.KernelIR(
            name="bad",
            expression_sql="<multi>",
            instructions=[
                ir.LoadConst(0, DecimalSpec(2, 0), False, 9999),  # does not fit
                ir.LoadColumn(1, spec, "ghost"),  # column not in input_columns
                ir.NegOp(2, spec, 7),  # register 7 never defined
                ir.StoreResult(2, spec, 2),
            ],
            input_columns={"a": spec},
            result_spec=spec,
            register_words=4,
        )

    def test_non_strict_collects_every_finding(self):
        findings = check_structure(self.multi_problem_kernel())
        rules = {finding.rule for finding in findings}
        assert {"STRUCT001", "STRUCT002", "STRUCT003"} <= rules
        assert all(finding.severity.name == "ERROR" for finding in findings)

    def test_strict_raises_the_first_finding(self, monkeypatch):
        kernel = self.multi_problem_kernel()
        first = check_structure(kernel)[0]
        with pytest.raises(CodegenError) as excinfo:
            compile_with(kernel, monkeypatch)
        assert str(excinfo.value) == first.message

    def test_valid_kernel_returns_no_findings(self):
        assert check_structure(valid_kernel()) == []
