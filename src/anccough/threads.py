"""How many threads the library's parallel loops run on, and the ordered map
two of them share.

`ordered_map` runs a function over a list of items on the calling thread plus
T - 1 helpers, T = `thread_count()`, and hands the results back in item order.
`synth.generate_dataset` renders recordings through it (only the caller
writes), and `pipeline.load_labeled_windows` loads, decimates and labels them
through it. `net.loss_and_grads` keeps its own chunk mapper (`net._chunk_mapper`),
whose pool serves two maps in one call. Every pool is opened and joined
within the call, so no thread outlives it, and none starts when T is 1.

A helper never calls a public function through a binding a caller may swap
(a module attribute): the traced benchmark run (perfbench/spans.py) swaps
those for span wrappers whose recorder keeps one open-span stack per process,
so a helper entering one closes the caller's spans out of order.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# Each thread that allocates gets its own glibc malloc arena, which keeps the
# memory it frees: with the caller idle and two helpers, a two-user dataset
# raised peak RSS by 15%; the caller plus one helper cost 7.2% on ingest.
# Raise the cap only after measuring RSS on a box with more CPUs.
THREADS_MAX = 2


def thread_count() -> int:
    """The CPUs this process may run on, capped at THREADS_MAX."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, THREADS_MAX)


@contextmanager
def ordered_map(fn: Callable, items: Sequence, threads: int,
                helper_fn: Callable | None = None) -> Iterator[Iterator]:
    """`fn` over `items` on `threads` threads, the calling one included; the
    with-block gets an iterator of the results in item order. Helpers run
    `helper_fn` in place of `fn` when it is given; it must return what `fn`
    would.

    Items go in rounds of `threads`: the calling thread runs the first of each
    round while helpers run the rest, and the round's results are handed on
    before the next round starts, so each thread holds at most one result the
    consumer has not taken. An exception from `fn` reaches the consumer at its
    item's place. Leaving the with-block, by an exception too, joins the
    helpers, so none outlives it.
    """
    # The pool starts a thread only on submit, so at one thread it starts none.
    with ThreadPoolExecutor(max(threads - 1, 1)) as helpers:
        def results() -> Iterator:
            for at in range(0, len(items), threads):
                own, *others = items[at:at + threads]
                theirs = [helpers.submit(helper_fn or fn, item) for item in others]
                yield fn(own)
                for future in theirs:
                    yield future.result()

        yield results()
