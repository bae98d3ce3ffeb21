"""The helper pool the library's rendering, loading and training step share."""

import os
import threading
import time

import pytest

from anccough.threads import THREADS_MAX, helpers, thread_count
from conftest import spy_thread_starts


def use_threads(monkeypatch, threads):
    monkeypatch.setattr("anccough.threads.thread_count", lambda: threads)


def test_thread_count_is_capped(monkeypatch):
    assert 1 <= thread_count() <= THREADS_MAX
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    assert thread_count() == THREADS_MAX


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 5, 6])
def test_results_come_back_in_item_order(monkeypatch, threads, n):
    use_threads(monkeypatch, threads)
    before = threading.active_count()
    with helpers() as ordered_map:
        assert list(ordered_map(lambda i: i * i, list(range(n)))) == [i * i for i in range(n)]
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_the_caller_runs_the_first_item_of_each_round(monkeypatch, threads):
    use_threads(monkeypatch, threads)
    ran_on = {}

    def record(i):
        ran_on[i] = threading.get_ident()
        return i

    with helpers() as ordered_map:
        list(ordered_map(record, list(range(7))))
    caller = threading.get_ident()
    assert [ran_on[i] == caller for i in range(7)] == [i % threads == 0 for i in range(7)]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_helpers_run_helper_fn_in_place_of_fn(monkeypatch, threads):
    use_threads(monkeypatch, threads)
    with helpers() as ordered_map:
        results = ordered_map(lambda i: ("fn", i), list(range(7)), lambda i: ("helper_fn", i))
        assert list(results) == [("fn" if i % threads == 0 else "helper_fn", i) for i in range(7)]


@pytest.mark.parametrize("cpus,started", [({0}, 0), ({0, 1}, 1)])
def test_one_pool_serves_two_maps_with_one_thread_start(monkeypatch, cpus, started):
    starts = spy_thread_starts(monkeypatch, cpus)
    with helpers() as ordered_map:
        assert list(ordered_map(lambda i: -i, range(5))) == [0, -1, -2, -3, -4]
        assert list(ordered_map(lambda i: 2 * i, range(5))) == [0, 2, 4, 6, 8]
    assert len(starts) == started
    assert not any(t.is_alive() for t in starts)


@pytest.mark.parametrize("threads", [2, 3])
def test_a_slow_consumer_keeps_helpers_one_round_ahead(monkeypatch, threads):
    """When the consumer takes an item of round k, helpers have started every
    helper item of round k + 1 and none of a later round."""
    use_threads(monkeypatch, threads)
    n = 4 * threads
    started = []

    def record(i):
        started.append(i)
        return i

    with helpers() as ordered_map:
        for i in ordered_map(record, range(n)):
            next_round = (i // threads + 1) * threads
            ahead = set(range(next_round + 1, min(next_round + threads, n)))
            deadline = time.monotonic() + 5
            while not ahead <= set(started) and time.monotonic() < deadline:
                time.sleep(0.001)
            assert ahead <= set(started)
            assert max(started) < next_round + threads


@pytest.mark.parametrize("failing", [2, 3])  # T = 2: the caller's item, then the helper's
def test_a_failed_item_raises_at_its_place_and_leaves_no_thread(monkeypatch, failing):
    use_threads(monkeypatch, 2)
    boom = RuntimeError("item failed")
    taken = []

    def flaky(i):
        if i == failing:
            raise boom
        return i

    before = threading.active_count()
    with pytest.raises(RuntimeError) as exc:
        with helpers() as ordered_map:
            for r in ordered_map(flaky, list(range(6))):
                taken.append(r)
    assert exc.value is boom
    assert taken == list(range(failing))
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [0, 1])  # while the helper still runs, then after
def test_a_failed_consumer_leaves_no_thread(monkeypatch, failing):
    use_threads(monkeypatch, 2)
    boom = OSError("write failed")

    def slow_odd(i):
        if i % 2:
            time.sleep(0.05)
        return i

    before = threading.active_count()
    with pytest.raises(OSError) as exc:
        with helpers() as ordered_map:
            for r in ordered_map(slow_odd, list(range(6))):
                if r == failing:
                    raise boom
    assert exc.value is boom
    assert threading.active_count() == before


# --- one pool at a time ---

def test_a_pool_opened_inside_a_pool_item_is_serial(monkeypatch):
    """A pool opened by an item, on the caller or on the helper, maps on that
    item's own thread, in item order, and starts no thread of its own."""
    starts = spy_thread_starts(monkeypatch, {0, 1})

    def inner(i):
        with helpers() as ordered_map:
            on = set()

            def record(j):
                on.add(threading.get_ident())
                return 10 * i + j

            results = list(ordered_map(record, list(range(5))))
        return results, on == {threading.get_ident()}, threading.get_ident()

    with helpers() as ordered_map:
        outer = list(ordered_map(inner, list(range(4))))
    assert [r for r, _, _ in outer] == [[10 * i + j for j in range(5)] for i in range(4)]
    assert all(serial for _, serial, _ in outer)
    assert len({ident for _, _, ident in outer}) == 2  # items ran on the caller and the helper
    assert len(starts) == 1 and not starts[0].is_alive()


def test_a_pool_opened_from_another_thread_while_one_is_open_is_serial(monkeypatch):
    use_threads(monkeypatch, 2)
    opened, release = threading.Event(), threading.Event()
    seen = {}

    def other_user():
        opened.wait(5)
        with helpers() as ordered_map:
            seen["on"] = {ident for ident in ordered_map(lambda i: threading.get_ident(),
                                                         list(range(6)))}
        seen["self"] = threading.get_ident()
        release.set()

    user = threading.Thread(target=other_user)
    user.start()
    with helpers() as ordered_map:
        opened.set()
        assert release.wait(5)
        assert list(ordered_map(lambda i: -i, list(range(3)))) == [0, -1, -2]
    user.join(5)
    assert seen["on"] == {seen["self"]}
    # the first pool is closed, so the next one may use the helper again
    with helpers() as ordered_map:
        assert len(set(ordered_map(lambda i: threading.get_ident(), list(range(6))))) == 2


@pytest.mark.parametrize("failing", [0, 1, 3])
def test_a_failed_item_on_the_serial_path_raises_at_its_place(monkeypatch, failing):
    use_threads(monkeypatch, 2)
    boom = RuntimeError("item failed")
    taken = []

    def flaky(i):
        if i == failing:
            raise boom
        return i

    before = threading.active_count()
    with helpers():  # the open pool makes the next one serial
        with pytest.raises(RuntimeError) as exc:
            with helpers() as ordered_map:
                for r in ordered_map(flaky, list(range(5))):
                    taken.append(r)
    assert exc.value is boom
    assert taken == list(range(failing))
    assert threading.active_count() == before
