"""The threads that share a split's utterances.

batch_enhance, training_features and evaluate_system run a split's
utterances here (evaluate_system one clean utterance and its mixtures at a
time), and nothing else in specmap starts a thread: each utterance's WPE
runs on its utterance's thread. run_items shares the items between the
calling thread and up to one helper thread per further CPU the process may
run on (os.sched_getaffinity): each thread claims the next unclaimed item
until none is left or one has raised. An item that reaches run_items again runs
those items inline, on its own thread: the outer call already keeps a
thread busy on every CPU it may use. The helper threads start and end with
each call.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

# Threads that share one call's items; None means one per CPU the process
# may run on.
_thread_limit: Optional[int] = None
_sharing = threading.local()  # .active while this thread runs run_items' items


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_items(run_item: Callable[[int], object], n_items: int) -> list:
    """[run_item(i) for i in range(n_items)], shared by this thread and helpers.

    min(_thread_limit or the CPU count, n_items) - 1 helper threads join
    the calling thread, and each thread runs the next unclaimed item. Once
    an item raises, no thread claims another; once every thread has
    stopped, that exception is raised, the calling thread's before any
    helper's. Called from a thread that is already sharing items, or with
    no helper to share with, it runs every item on the calling thread.
    """
    limit = _cpu_count() if _thread_limit is None else _thread_limit
    n_helpers = min(limit, n_items) - 1
    if n_helpers < 1 or getattr(_sharing, "active", False):
        return [run_item(index) for index in range(n_items)]
    unclaimed = iter(range(n_items))
    claim = threading.Lock()
    failed = False
    results: list = [None] * n_items

    def drain():
        nonlocal failed
        _sharing.active = True
        try:
            while True:
                with claim:
                    index = None if failed else next(unclaimed, None)
                if index is None:
                    return
                try:
                    results[index] = run_item(index)
                except BaseException:
                    with claim:
                        failed = True
                    raise
        finally:
            _sharing.active = False

    with ThreadPoolExecutor(n_helpers, thread_name_prefix="specmap") as helpers:
        futures = [helpers.submit(drain) for _ in range(n_helpers)]
        drain()
    for future in futures:
        future.result()
    return results
