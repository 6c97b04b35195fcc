"""The closed-loop driver against a stub front end with a step-counting clock."""

from dataclasses import dataclass

import numpy as np

from repro.errors import AdmissionError
from servingbench.driver import ClosedLoopDriver
from servingbench.workloads import Script, ScriptedRequest, WORKLOADS

STEPS_TO_FIRST_TOKEN = 3


@dataclass
class StubStats:
    model_calls: int
    batch_size: int
    prefill_tokens: int


class StubHandle:
    def __init__(self, request, born):
        self.request = request
        self.born = born
        self.emitted = []
        self.finished = False

    def tokens(self):
        return tuple(self.emitted)

    def result(self):
        assert self.finished
        return ("response", self.request.session_id)


class StubFrontend:
    """Every request needs 3 steps to its first token, then one step per token,
    and (like the real front end) one more step to finish."""

    def __init__(self, refuse=()):
        self.now = 0
        self.refuse = set(refuse)
        self.active = []
        self.submitted = []
        self.max_outstanding = {}

    def clock(self):
        return float(self.now)

    def submit(self, request):
        if request.session_id in self.refuse:
            raise AdmissionError("refused by the stub")
        handle = StubHandle(request, self.now)
        self.active.append(handle)
        self.submitted.append((self.now, request.session_id))
        user = request.session_id.split("-")[1]
        outstanding = sum(1 for h in self.active if h.request.session_id.split("-")[1] == user)
        self.max_outstanding[user] = max(self.max_outstanding.get(user, 0), outstanding)
        return handle

    def step(self):
        self.now += 1
        working = 0
        for handle in list(self.active):
            working += 1
            age = self.now - handle.born
            if len(handle.emitted) == handle.request.max_new_tokens:
                handle.finished = True
                self.active.remove(handle)
            elif age >= STEPS_TO_FIRST_TOKEN:
                handle.emitted.append(100 + len(handle.emitted))
        return StubStats(model_calls=int(working > 0), batch_size=working, prefill_tokens=0)


def make_script(lengths_by_user):
    prompt = np.arange(4)
    users = tuple(
        tuple(ScriptedRequest(u, r, prompt, n) for r, n in enumerate(lengths))
        for u, lengths in enumerate(lengths_by_user)
    )
    return Script(WORKLOADS["chat_restore"], 0, None, users)


def run(script, **stub_args):
    frontend = StubFrontend(**stub_args)
    driver = ClosedLoopDriver(frontend, clock=frontend.clock, cpu_clock=frontend.clock)
    return frontend, driver.run_pass(script, "p0")


def test_every_request_is_served_with_outside_in_timestamps():
    frontend, record = run(make_script([(2, 3), (4, 1)]))
    assert len(record.requests) == 4 and len(record.completed) == 4
    for request in record.requests:
        assert len(request.tokens) == request.request.max_new_tokens
        assert request.ttft == STEPS_TO_FIRST_TOKEN
        assert request.gaps == [1.0] * (request.request.max_new_tokens - 1)
        # first token after 3 steps, one per step after, one step to finish
        assert request.latency == STEPS_TO_FIRST_TOKEN + request.request.max_new_tokens
        assert request.response == ("response", request.session_id)
    assert record.wall == frontend.now
    assert len(record.steps) == frontend.now
    assert record.cpu_seconds == record.wall


def test_closed_loop_one_outstanding_request_per_user_and_zero_think_time():
    frontend, record = run(make_script([(2, 3, 1), (4, 1, 2), (1, 1, 1)]))
    assert set(frontend.max_outstanding.values()) == {1}
    by_user = {}
    for request in record.requests:
        by_user.setdefault(request.request.user, []).append(request)
    for requests in by_user.values():
        for previous, following in zip(requests, requests[1:]):
            assert following.submitted_at == previous.finished_at


def test_users_join_when_the_previous_one_has_its_first_token():
    _, record = run(make_script([(5,), (5,), (5,)]))
    first = {r.request.user: r for r in record.requests}
    assert first[0].submitted_at == 0.0
    assert first[1].submitted_at == first[0].token_times[0]
    assert first[2].submitted_at == first[1].token_times[0]


def test_session_ids_are_fresh_per_pass():
    script = make_script([(1,), (1,)])
    assert script.session_ids("p0") == ["p0-u0-r0", "p0-u1-r0"]
    assert not set(script.session_ids("p0")) & set(script.session_ids("p1"))


def test_a_refused_request_fails_and_the_user_moves_on():
    _, record = run(make_script([(2, 2), (2,)]), refuse={"p0-u0-r0"})
    refused = record.requests[0]
    assert not refused.ok and refused.error.startswith("AdmissionError")
    assert len(record.requests) == 3 and len(record.completed) == 2
    served = [r.session_id for r in record.completed]
    assert served == ["p0-u0-r1", "p0-u1-r0"]
