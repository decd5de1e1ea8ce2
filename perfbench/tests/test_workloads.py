"""Seeded inputs and operation sequences, the tail rule, and the span map."""

import itertools

import reference
import run
import workloads

SERVE = workloads.WORKLOADS["serve_fresh"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, n = run.tail([float(i) for i in range(100, 0, -1)])
    assert (value, percentile, n) == (90.0, 90.0, 100)
    value, percentile, n = run.tail([float(i) for i in range(20)])
    assert sum(1 for i in range(20) if i > value) == 10
    assert percentile == 50.0
    # Too few samples for ten beyond: the smallest, with its percentile.
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 3)


def snapshot(seed):
    tables = workloads.reference_tables(SERVE, seed)
    return (
        tables,
        workloads.epoch_batches(SERVE, seed),
        list(itertools.islice(workloads.session_b_reads(seed), 200)),
    )


def test_same_seed_same_inputs_and_operations():
    assert snapshot(3) == snapshot(3)
    assert workloads.session_a_ops() == workloads.session_a_ops()


def test_different_seed_different_inputs_and_operations():
    (tables_a, batches_a, reads_a), (tables_b, batches_b, reads_b) = snapshot(3), snapshot(4)
    for name in ("lineitem", "orders", "customer"):
        assert tables_a[name] != tables_b[name]
    assert batches_a != batches_b
    assert reads_a != reads_b


def test_reference_inputs_equal_the_engine_inputs():
    from repro.storage.schema import CharType, DecimalType

    tables = workloads.reference_tables(SERVE, 5)
    for relation in workloads.engine_relations(SERVE, 5):
        for column in relation.columns:
            want = tables[relation.name].get(column.name)
            if want is None:
                continue  # a column no statement reads
            if isinstance(column.column_type, DecimalType):
                got = column.unscaled()
            elif isinstance(column.column_type, CharType):
                got = [v.decode().rstrip() for v in column.data.tolist()]
            else:
                got = column.data.tolist()
            assert got == want, (relation.name, column.name)


def test_appended_literals_round_trip_to_the_raw_batch():
    batch = workloads.epoch_batches(SERVE, 1)[0]
    literals = workloads.literal_rows(batch)
    for raw, literal in zip(batch, literals):
        for value, text in zip(raw[:4], literal[:4]):
            assert reference.parse_decimal(text) == reference.Dec(value, 2)
        assert raw[4:] == literal[4:]


def test_every_operator_class_gets_a_span_name():
    from repro.engine.plan import physical

    names = {run.operator_span(cls.__name__) for cls in run.operator_classes(physical.PhysicalOp)}
    spanned = {name for names_ in run.LAYER_SPANS.values() for name in names_}
    assert names <= spanned
    assert run.operator_span("GroupAggregateOp") == "op.group_aggregate"
