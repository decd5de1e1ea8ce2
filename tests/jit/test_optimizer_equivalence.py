"""Property test: JIT optimisations never change results.

Hypothesis generates random expression trees over random schemas and random
column data; the kernel compiled with *all* optimisations enabled must
produce bit-identical results to the kernel compiled with *none* -- the
strongest correctness invariant the optimiser has.

Division/modulo are excluded from the random grammar because their results
legitimately depend on association order under the section III-B3
truncation rules (the optimiser never reassociates them, but random
parenthesisation interacts with folding of '/' by exact constants);
targeted division tests live in test_codegen/test_executor.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit import JitOptions, compile_expression
from repro.gpusim import execute

COLUMNS = ("a", "b", "c")


@st.composite
def schemas(draw):
    schema = {}
    for name in COLUMNS:
        precision = draw(st.integers(min_value=2, max_value=24))
        scale = draw(st.integers(min_value=0, max_value=min(precision, 12)))
        schema[name] = DecimalSpec(precision, scale)
    return schema


@st.composite
def expressions(draw, depth=0):
    """A random +/-/* expression over columns and literals."""
    if depth >= 3 or draw(st.booleans()) and depth > 0:
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            whole = draw(st.integers(min_value=0, max_value=999))
            frac = draw(st.integers(min_value=0, max_value=99))
            return f"{whole}.{frac:02d}" if draw(st.booleans()) else str(whole)
        return draw(st.sampled_from(COLUMNS))
    op = draw(st.sampled_from(["+", "-", "*", "+", "-"]))  # bias to +/-
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    if draw(st.booleans()):
        return f"({left} {op} {right})"
    return f"{left} {op} {right}"


ALL_ON = JitOptions()
ALL_OFF = JitOptions(
    alignment_scheduling=False,
    constant_folding=False,
    constant_alignment=False,
    constant_construction=False,
)
VARIANTS = [
    ALL_OFF,
    JitOptions(alignment_scheduling=False),
    JitOptions(constant_folding=False, constant_alignment=False),
    JitOptions(constant_construction=False, constant_alignment=False),
    JitOptions(tpi=8),
]


class TestOptimizerEquivalence:
    @given(
        schema=schemas(),
        expression=expressions(),
        rows=st.lists(
            st.tuples(
                st.integers(min_value=-(10**12), max_value=10**12),
                st.integers(min_value=-(10**12), max_value=10**12),
                st.integers(min_value=-(10**12), max_value=10**12),
            ),
            min_size=1,
            max_size=6,
        ),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_all_optimisations_preserve_value(self, schema, expression, rows, data):
        columns = {}
        values = {}
        for index, name in enumerate(COLUMNS):
            spec = schema[name]
            column_values = [row[index] % (spec.max_unscaled + 1) for row in rows]
            values[name] = column_values
            columns[name] = DecimalVector.from_unscaled(column_values, spec).to_compact()

        try:
            reference = compile_expression(expression, schema, ALL_ON)
        except Exception:
            pytest.skip("degenerate random expression")
        reference_run = execute(
            reference.kernel,
            {n: columns[n] for n in reference.kernel.input_columns},
            len(rows),
        )
        reference_fractions = [
            Fraction(u, 10**reference_run.result.spec.scale)
            for u in reference_run.result.to_unscaled()
        ]

        for options in VARIANTS:
            compiled = compile_expression(expression, schema, options)
            run = execute(
                compiled.kernel,
                {n: columns[n] for n in compiled.kernel.input_columns},
                len(rows),
            )
            fractions = [
                Fraction(u, 10**run.result.spec.scale) for u in run.result.to_unscaled()
            ]
            assert fractions == reference_fractions, (
                f"options {options} changed results for {expression!r}"
            )

    @given(schema=schemas(), expression=expressions())
    @example(
        schema={
            "a": DecimalSpec(4, 4),
            "b": DecimalSpec(4, 4),
            "c": DecimalSpec(2, 2),
        },
        expression="0 * a + a + c * 1.00",
    )
    @settings(max_examples=60, deadline=None)
    def test_optimised_never_has_more_alignments(self, schema, expression):
        """Alignment scheduling never adds alignments to the folded tree.

        The baseline is the same options without scheduling, not the
        unfolded expression: the section III-D2 ``x * 1`` shortcut drops
        the literal's scale, so in the pinned example folding ``c * 1.00``
        to ``c`` takes the sum from 0 alignments to 1 whatever the order.
        """
        try:
            scheduled = compile_expression(expression, schema, ALL_ON)
        except Exception:
            pytest.skip("degenerate random expression")
        unscheduled = compile_expression(
            expression, schema, replace(ALL_ON, alignment_scheduling=False)
        )
        assert scheduled.alignments_after <= unscheduled.alignments_after

    @given(schema=schemas(), expression=expressions())
    @settings(max_examples=60, deadline=None)
    def test_exact_rational_oracle(self, schema, expression):
        """The fully-optimised kernel equals exact rational evaluation.

        +, - and * never truncate under the inference rules, so the kernel
        result must equal the exact Fraction value of the expression.
        """
        try:
            compiled = compile_expression(expression, schema, ALL_ON)
        except Exception:
            pytest.skip("degenerate random expression")
        values = {name: [spec.max_unscaled // 3] for name, spec in schema.items()}
        columns = {
            name: DecimalVector.from_unscaled(values[name], schema[name]).to_compact()
            for name in schema
        }
        run = execute(
            compiled.kernel, {n: columns[n] for n in compiled.kernel.input_columns}, 1
        )
        got = Fraction(run.result.to_unscaled()[0], 10**run.result.spec.scale)

        import re

        text = expression
        for name in COLUMNS:
            exact = Fraction(values[name][0], 10 ** schema[name].scale)
            text = re.sub(rf"\b{name}\b", f"Fraction({exact.numerator},{exact.denominator})", text)
        text = re.sub(r"(\d+\.\d+)", lambda m: f"Fraction('{m.group(1)}')", text)
        expected = eval(text, {"Fraction": Fraction})  # noqa: S307 - test-local
        assert got == expected
