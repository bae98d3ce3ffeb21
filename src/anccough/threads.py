"""The one helper-thread pool of the library's parallel loops.

`helpers()` reads `thread_count()` once, T, and opens a pool of T - 1 helper
threads for its with-block, which gets `ordered_map(fn, items,
helper_fn=None)`: `fn` over `items` on the calling thread plus the helpers,
results in item order. `synth.generate_dataset` renders,
`pipeline.load_labeled_windows` loads, `dsp.decimate` filters its block
groups and `net.predict_probs` scores (for `evalkit.evaluate` and
`pipeline.train`'s validation) through one map each; `net.loss_and_grads`
runs its forward and backward chunk maps on one pool. `net.forward_batch`,
the wearer's path (`stream.detect` and the stepper), maps the same forward's
chunks with the builtin `map` and starts no thread (see net.py); in `cli
detect` only the decimation before it uses the pool, which is joined before
scoring starts.

One pool at a time: a `helpers()` opened while another is open anywhere in
the process (inside a pool item, on the caller or a helper, or from another
thread) gets a serial map on its own caller and starts no thread. So the
decimation inside a load item runs serially, and no more than THREADS_MAX
threads ever compute at once.

Items go in rounds of T: the calling thread runs the first item of each round,
the helpers the rest. When round k starts, the helpers' items of round k + 1
are submitted, so a helper holds at most one result the consumer has not
taken, plus one in progress (strict rounds left it idle at each round's end,
about 5% of a training step on a 2-core box). No result depends on the
schedule or on T, as each item is computed on its own. The pool starts a
thread only on submit, so none starts when T is 1, and leaving the with-block,
by an exception too, cancels the items not yet started and joins the helpers.

A helper never calls a public function through a binding a caller may swap
(a module attribute): the traced benchmark run (perfbench/spans.py) swaps
those for span wrappers whose recorder keeps one open-span stack per process,
so a helper entering one closes the caller's spans out of order. That is what
`helper_fn` is for: helpers run it, when given, in place of `fn`.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# Each thread that allocates gets its own glibc malloc arena, which keeps the
# memory it frees: with the caller idle and two helpers, a two-user dataset
# raised peak RSS by 15%; the caller plus one helper cost 7.2% on ingest.
# Raise the cap only after measuring RSS on a box with more CPUs.
THREADS_MAX = 2

# Held by the open pool's with-block; a pool that cannot take it runs serially.
_POOL_OPEN = threading.Lock()


def thread_count() -> int:
    """The CPUs this process may run on, capped at THREADS_MAX."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, THREADS_MAX)


@contextmanager
def helpers() -> Iterator[Callable[..., Iterator]]:
    """The pool and its ordered map for the with-block, as described above.
    `helper_fn` must return what `fn` would. An exception from an item reaches
    the consumer at that item's place. While another pool is open the map is
    serial, on the calling thread."""
    owner = _POOL_OPEN.acquire(blocking=False)
    threads = thread_count() if owner else 1
    pool = ThreadPoolExecutor(max(threads - 1, 1))

    def ordered_map(fn: Callable, items: Sequence,
                    helper_fn: Callable | None = None) -> Iterator:
        def submit(at: int) -> list:
            return [pool.submit(helper_fn or fn, item) for item in items[at + 1:at + threads]]

        theirs = submit(0)
        for at in range(0, len(items), threads):
            ahead = submit(at + threads)
            yield fn(items[at])
            for future in theirs:
                yield future.result()
            theirs = ahead

    try:
        yield ordered_map
    finally:
        pool.shutdown(cancel_futures=True)
        if owner:
            _POOL_OPEN.release()
