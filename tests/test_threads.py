"""The ordered map the library's loading and rendering share."""

import threading
import time

import pytest

from anccough.threads import ordered_map


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 5, 6])
def test_results_come_back_in_item_order(threads, n):
    before = threading.active_count()
    with ordered_map(lambda i: i * i, list(range(n)), threads) as results:
        assert list(results) == [i * i for i in range(n)]
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_the_caller_runs_the_first_item_of_each_round(threads):
    ran_on = {}

    def record(i):
        ran_on[i] = threading.get_ident()
        return i

    with ordered_map(record, list(range(7)), threads) as results:
        list(results)
    caller = threading.get_ident()
    assert [ran_on[i] == caller for i in range(7)] == [i % threads == 0 for i in range(7)]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_helpers_run_helper_fn_in_place_of_fn(threads):
    with ordered_map(lambda i: ("fn", i), list(range(7)), threads,
                     lambda i: ("helper_fn", i)) as results:
        assert list(results) == [("fn" if i % threads == 0 else "helper_fn", i) for i in range(7)]


@pytest.mark.parametrize("failing", [2, 3])  # T = 2: the caller's item, then the helper's
def test_a_failed_item_raises_at_its_place_and_leaves_no_thread(failing):
    boom = RuntimeError("item failed")
    taken = []

    def flaky(i):
        if i == failing:
            raise boom
        return i

    before = threading.active_count()
    with pytest.raises(RuntimeError) as exc:
        with ordered_map(flaky, list(range(6)), 2) as results:
            for r in results:
                taken.append(r)
    assert exc.value is boom
    assert taken == list(range(failing))
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [0, 1])  # while the helper still runs, then after
def test_a_failed_consumer_leaves_no_thread(failing):
    boom = OSError("write failed")

    def slow_odd(i):
        if i % 2:
            time.sleep(0.05)
        return i

    before = threading.active_count()
    with pytest.raises(OSError) as exc:
        with ordered_map(slow_odd, list(range(6)), 2) as results:
            for r in results:
                if r == failing:
                    raise boom
    assert exc.value is boom
    assert threading.active_count() == before
