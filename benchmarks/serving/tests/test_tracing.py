import json
import threading

from servingbench.tracing import Tracer, covered, merged, overlap, self_times, write_chrome_trace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Layers:
    """outer() spends 1 s itself, 2 s in inner(), 3 s in a second inner()."""

    def __init__(self, clock):
        self.clock = clock

    def outer(self, session):
        self.clock.now += 1.0
        self.inner(2.0)
        self.inner(3.0)
        return "done"

    def inner(self, seconds):
        self.clock.now += seconds


def test_self_time_is_duration_minus_same_thread_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    layers = Layers(clock)
    tracer.wrap(layers, "outer", "a.outer", sessions=lambda session: [session])
    tracer.wrap(layers, "inner", "b.inner", work=lambda seconds: seconds)
    assert layers.outer("s1") == "done"

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer,) = by_name["a.outer"]
    inners = by_name["b.inner"]
    assert outer.duration == 6.0 and outer.parent is None and outer.session == "s1"
    assert [s.duration for s in inners] == [2.0, 3.0]
    assert all(s.parent == outer.id and s.session == "s1" for s in inners)
    assert [s.work for s in inners] == [2.0, 3.0]
    own = self_times(tracer.spans)
    assert own[outer.id] == 1.0
    assert [own[s.id] for s in inners] == [2.0, 3.0]
    assert sum(own.values()) == outer.duration


def test_cross_thread_child_names_its_cause_but_is_not_subtracted():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Handoff:
        def submit(self, session):
            clock.now += 1.0

        def work(self, session):
            clock.now += 4.0

    handoff = Handoff()
    tracer.wrap(handoff, "submit", "x.submit", sessions=lambda s: [s])
    tracer.wrap(handoff, "work", "y.work", sessions=lambda s: [s], caused_by="x.submit")
    handoff.submit("s9")
    worker = threading.Thread(target=handoff.work, args=("s9",), name="worker-0")
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()

    submit, work = sorted(tracer.spans, key=lambda s: s.id)
    assert work.thread == "worker-0"
    assert work.parent == submit.id and not work.same_thread_parent
    assert self_times(tracer.spans) == {submit.id: 1.0, work.id: 4.0}


def test_uninstall_restores_the_class_method():
    clock = FakeClock()
    tracer = Tracer(clock)
    layers = Layers(clock)
    tracer.wrap(layers, "inner", "b.inner")
    layers.inner(1.0)
    tracer.uninstall()
    layers.inner(1.0)
    assert len(tracer.spans) == 1
    assert "inner" not in vars(layers)


def test_interval_arithmetic():
    assert merged([(3, 4), (0, 1), (0.5, 2)]) == [(0, 2), (3, 4)]
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    assert overlap((0.5, 3.5), [(0, 2), (3, 4)]) == 2.0
    assert overlap((5, 6), [(0, 2), (3, 4)]) == 0.0


def test_chrome_trace_file_loads(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock)
    layers = Layers(clock)
    tracer.wrap(layers, "outer", "a.outer", sessions=lambda session: [session])
    tracer.wrap(layers, "inner", "b.inner")
    layers.outer("s1")
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer.spans, path)
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 3
    assert {e["name"] for e in complete} == {"a.outer", "b.inner"}
    assert all(e["dur"] > 0 and e["ts"] >= 0 for e in complete)
    assert any(e["ph"] == "M" and e["args"]["name"] == "MainThread" for e in events)
