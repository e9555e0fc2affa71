"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [3.5]


def test_timeout_value_is_delivered():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        for _ in range(4):
            yield env.timeout(2.0)
            times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [2.0, 4.0, 6.0, 8.0]


def test_two_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(proc("slow", 5.0))
    env.process(proc("fast", 1.0))
    env.run()
    assert order == [("fast", 1.0), ("slow", 5.0)]


def test_same_time_events_fire_in_creation_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abc":
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_propagates():
    env = Environment()
    results = []

    def child():
        yield env.timeout(1.0)
        return 99

    def parent():
        value = yield env.process(child())
        results.append(value)

    env.process(parent())
    env.run()
    assert results == [99]


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()
    results = []

    def child():
        yield env.timeout(1.0)
        return "done"

    def parent(child_proc):
        yield env.timeout(10.0)
        value = yield child_proc
        results.append((env.now, value))

    child_proc = env.process(child())
    env.process(parent(child_proc))
    env.run()
    assert results == [(10.0, "done")]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1.0)

    env.process(proc())
    env.run(until=7.5)
    assert env.now == 7.5


def test_run_until_time_with_empty_queue_lands_on_stop_time():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    env.process(proc())
    # The queue drains at t=1 but the clock must still land on t=4.
    env.run(until=4.0)
    assert env.now == 4.0
    assert env.peek() == float("inf")


def test_run_until_time_with_pending_events_lands_on_stop_time():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    # Next event is at t=10, beyond the horizon: clock stops exactly at 3.5.
    env.run(until=3.5)
    assert env.now == 3.5
    assert env.peek() == 10.0


def test_run_until_event_returns_value():
    env = Environment()
    done = env.event()

    def proc():
        yield env.timeout(2.0)
        done.succeed("finished")

    env.process(proc())
    assert env.run(until=done) == "finished"
    assert env.now == 2.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    never = env.event()

    def proc():
        yield env.timeout(1.0)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_rejected():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_fail_propagates_exception_into_process():
    env = Environment()
    event = env.event()
    caught = []

    def proc():
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc())

    def failer():
        yield env.timeout(1.0)
        event.fail(RuntimeError("boom"))

    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise ValueError("kaput")

    env.process(proc())
    with pytest.raises(ValueError, match="kaput"):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    causes = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            causes.append((env.now, interrupt.cause))

    victim_proc = env.process(victim())

    def interrupter():
        yield env.timeout(3.0)
        victim_proc.interrupt(cause="preempt")

    env.process(interrupter())
    env.run()
    assert causes == [(3.0, "preempt")]


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            log.append("interrupted")
        yield env.timeout(1.0)
        log.append(env.now)

    victim_proc = env.process(victim())

    def interrupter():
        yield env.timeout(2.0)
        victim_proc.interrupt()

    env.process(interrupter())
    env.run()
    assert log == ["interrupted", 3.0]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_original_timeout_does_not_resume_interrupted_process_twice():
    env = Environment()
    resumes = []

    def victim():
        try:
            yield env.timeout(5.0)
            resumes.append("timeout")
        except Interrupt:
            resumes.append("interrupt")
        yield env.timeout(10.0)
        resumes.append("second-wait")

    victim_proc = env.process(victim())

    def interrupter():
        yield env.timeout(1.0)
        victim_proc.interrupt()

    env.process(interrupter())
    env.run()
    # The 5 s timeout fires at t=5 but must not wake the process again.
    assert resumes == ["interrupt", "second-wait"]


def test_any_of_fires_on_first_event():
    env = Environment()
    winners = []

    def proc():
        t_fast = env.timeout(1.0, value="fast")
        t_slow = env.timeout(9.0, value="slow")
        result = yield AnyOf(env, [t_fast, t_slow])
        winners.append((env.now, list(result.values())))

    env.process(proc())
    env.run()
    assert winners == [(1.0, ["fast"])]


def test_all_of_waits_for_every_event():
    env = Environment()
    results = []

    def proc():
        events = [env.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
        result = yield AllOf(env, events)
        results.append((env.now, sorted(result.values())))

    env.process(proc())
    env.run()
    assert results == [(3.0, [1.0, 2.0, 3.0])]


def test_empty_all_of_fires_immediately():
    env = Environment()
    fired = []

    def proc():
        yield AllOf(env, [])
        fired.append(env.now)

    env.process(proc())
    env.run()
    assert fired == [0.0]


def test_yielding_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42  # not an event

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_cross_environment_event_rejected():
    env_a = Environment()
    env_b = Environment()

    def proc():
        yield env_b.timeout(1.0)

    env_a.process(proc())
    env_b.run()  # consume env_b's timeout scheduling
    with pytest.raises(SimulationError):
        env_a.run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4.0)
    env.timeout(2.0)
    assert env.peek() == 2.0


def test_peek_empty_queue_is_infinite():
    env = Environment()
    env.run()
    assert env.peek() == float("inf")


def test_step_on_empty_queue_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_active_process_visible_during_resume():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1.0)

    p = env.process(proc())
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_thousand_process_fan_in():
    env = Environment()
    done = []

    def worker(i):
        yield env.timeout(i * 0.001)
        return i

    def collector():
        procs = [env.process(worker(i)) for i in range(1000)]
        result = yield AllOf(env, procs)
        done.append(sum(result.values()))

    env.process(collector())
    env.run()
    assert done == [sum(range(1000))]


def test_timeout_at_fires_at_the_exact_instant():
    env = Environment()
    fired = []
    # A relative delay from 0.5 cannot reach this instant: the
    # subtraction rounds, and so does adding it back (a tie to even).
    target = 2.0**52 + 1.0
    assert 0.5 + (target - 0.5) != target

    def proc():
        yield env.timeout(0.5)
        yield env.timeout_at(target, value="at")
        fired.append(env.now)

    env.process(proc())
    env.run()
    assert fired == [target]


def test_timeout_at_rejects_the_past():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError, match="in the past"):
        env.timeout_at(4.0)


def test_actors_attach_once_and_detach():
    env = Environment()
    actor = object()
    assert env.actors == ()
    env.attach_actor(actor)
    env.attach_actor(actor)
    assert env.actors == (actor,)
    env.detach_actor(actor)
    env.detach_actor(actor)
    assert env.actors == ()


def test_timeout_at_orders_ties_as_of_scheduled_at():
    env = Environment()
    fired = []

    def planner():
        # Planned at t=0, counted as scheduled at t=2.
        yield env.timeout_at(5.0, value="planned", scheduled_at=2.0)
        fired.append("planned")

    def stepper(name, start):
        yield env.timeout(start)
        yield env.timeout(5.0 - start)
        fired.append(name)

    env.process(planner())
    env.process(stepper("before", 1.0))
    env.process(stepper("after", 3.0))
    env.run()
    assert fired == ["before", "planned", "after"]
    with pytest.raises(ValueError, match="scheduled_at"):
        env.timeout_at(9.0, scheduled_at=10.0)
