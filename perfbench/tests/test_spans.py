"""Self-time arithmetic, span linking across threads, and patch hygiene."""

import threading
import types

import pytest

import spans
from spans import Span


def span(name, start, end, parent=None, request=None, thread=0):
    s = Span(name, start, parent, request, thread)
    s.end = end
    return s


def test_self_time_subtracts_nested_children():
    tree = [
        span("root", 0.0, 10.0, request=0),
        span("child", 1.0, 4.0, parent=0),
        span("grandchild", 2.0, 3.0, parent=1),
        span("child", 5.0, 6.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_self_time_unions_overlapping_cross_thread_children():
    # Two worker-thread children overlap each other and spill past the parent.
    tree = [
        span("serving", 0.0, 10.0, request=7, thread=1),
        span("execute", 2.0, 6.0, parent=0, thread=2),
        span("execute", 4.0, 12.0, parent=0, thread=3),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_per_request_sums_self_time_and_counts():
    tree = [
        span("root", 0.0, 4.0, request=0),
        span("leaf", 1.0, 2.0, parent=0, request=0),
        span("leaf", 2.0, 3.0, parent=0, request=0),
        span("root", 5.0, 6.0, request=1),
    ]
    table = spans.per_request(tree)
    assert table[0]["leaf"] == pytest.approx((2.0, 2))
    assert table[0]["root"] == pytest.approx((2.0, 1))
    assert table[1]["root"] == pytest.approx((1.0, 1))


def test_attributed_separates_the_roots_own_time_from_named_layers():
    tree = [
        span("root", 0.0, 4.0, request=0),
        span("layer", 1.0, 4.0, parent=0, request=0),
        span("root", 5.0, 7.0, request=1),  # nothing below the root is named
        span("root", 8.0, 9.0, request=2),  # not asked for
    ]
    seconds = spans.self_times(tree)
    assert spans.attributed(tree, seconds, [0, 1]) == pytest.approx((6.0, 3.0))
    assert spans.attributed(tree, seconds, [1]) == pytest.approx((2.0, 0.0))


class _Result:
    def __init__(self, result):
        self.result = result


def test_worker_root_links_to_the_async_span_that_returned_its_result():
    import asyncio

    tracer = spans.Tracer()
    module = types.SimpleNamespace(work=lambda: object())
    tracer.wrap(module, "work", "execute", keep_result=True)

    class Server:
        async def serve(self):
            loop = asyncio.get_running_loop()
            return _Result(await loop.run_in_executor(None, module.work))

    tracer.wrap_async(Server, "serve", "serving")

    async def main():
        await asyncio.gather(Server().serve(), Server().serve())

    asyncio.run(main())
    tracer.uninstall()
    tracer.link()
    serving = [i for i, s in enumerate(tracer.spans) if s.name == "serving"]
    executes = [s for s in tracer.spans if s.name == "execute"]
    assert sorted(s.parent for s in executes) == sorted(serving)
    for s in executes:
        assert s.request == tracer.spans[s.parent].request
        assert s.thread != tracer.spans[s.parent].thread


def test_stacks_are_per_thread_and_uninstall_restores():
    tracer = spans.Tracer()
    module = types.SimpleNamespace(inner=lambda: None)
    original = module.inner

    def outer():
        module.inner()

    module.outer = outer
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "outer", "outer")
    tracer.request = "main"
    module.outer()
    worker = threading.Thread(target=module.inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.uninstall()
    assert module.inner is original and module.outer is outer
    outer_span, inner_main, inner_worker = tracer.spans
    assert inner_main.parent == 0 and inner_main.request == "main"
    assert inner_worker.parent is None and inner_worker.request is None
    assert outer_span.end >= inner_main.end
