"""How many threads the library's parallel loops run on, the calling one included.

`synth.generate_dataset` renders recordings, and `net.loss_and_grads` runs
chunks of windows, on this many threads. Each opens and joins its helpers
within the call, so no thread outlives it, and starts none when this count
is 1.
"""

from __future__ import annotations

import os

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
