"""The threads that share a call's independent items: utterances or blocks of bins.

batch_enhance runs a batch's utterances here, and wpe_dereverberate the
blocks of bins of one call. run_items shares the items between the
calling thread and up to one helper thread per further CPU the process may
run on (os.sched_getaffinity): each thread claims the next unclaimed item
until none is left or one has raised. The threads never nest: an item that
reaches run_items again from a thread that is sharing items (WPE inside a
batch) runs those items inline, on its own thread. A helper that handed
them out would wait on its own busy executor, and inline each utterance of
a batch does exactly the arithmetic of a one-thread run. The helper threads
start on the first call that needs them and live as long as the process;
a forked child starts its own.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Optional

# Threads that share one call's items; None means one per CPU the process
# may run on.
_thread_limit: Optional[int] = None
_helpers: list[ThreadPoolExecutor] = []  # one thread each, started as calls need them
_helpers_lock = threading.Lock()
_sharing = threading.local()  # .active while this thread runs run_items' items


def _forget_helpers() -> None:
    # A forked child has none of its parent's threads: a task handed to an
    # inherited executor would never run.
    global _helpers, _helpers_lock
    _helpers, _helpers_lock = [], threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


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

    with _helpers_lock:
        while len(_helpers) < n_helpers:
            _helpers.append(ThreadPoolExecutor(1, thread_name_prefix="specmap"))
        futures = [helper.submit(drain) for helper in _helpers[:n_helpers]]
    try:
        drain()
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return results
