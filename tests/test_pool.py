import threading
import time

import pytest

from specmap import _pool


class CallerError(Exception):
    pass


class HelperError(Exception):
    pass


def test_items_keep_their_order_on_any_thread_count(monkeypatch):
    for threads in (1, 2, 5):
        monkeypatch.setattr(_pool, "_thread_limit", threads)
        assert _pool.run_items(lambda i: i * i, 9) == [i * i for i in range(9)]
        assert _pool.run_items(lambda i: i, 0) == []


def test_no_item_starts_after_one_raises(monkeypatch):
    # Items 0 and 1 start together, one on each thread; item 0 raises while
    # item 1 is still running, and no thread claims item 2 or later.
    monkeypatch.setattr(_pool, "_thread_limit", 2)
    both_started = threading.Barrier(2, timeout=60)
    started = []

    def run_item(index):
        started.append(index)
        if index < 2:
            both_started.wait()
        if index == 0:
            raise CallerError("item 0 failed")
        time.sleep(0.5)  # item 0 fails meanwhile
        return index

    with pytest.raises(CallerError):
        _pool.run_items(run_item, 8)
    assert sorted(started) == [0, 1]


def test_the_calling_threads_exception_wins(monkeypatch):
    monkeypatch.setattr(_pool, "_thread_limit", 2)
    caller = threading.get_ident()
    both_started = threading.Barrier(2, timeout=60)
    started = []

    def run_item(index):
        started.append(index)
        both_started.wait()
        raise (CallerError if threading.get_ident() == caller else HelperError)(index)

    for _ in range(5):
        started.clear()
        with pytest.raises(CallerError):
            _pool.run_items(run_item, 6)
        assert sorted(started) == [0, 1]


def test_items_that_share_items_again_run_them_on_their_own_thread(monkeypatch):
    monkeypatch.setattr(_pool, "_thread_limit", 3)
    outer_started = threading.Barrier(3, timeout=60)

    def inner(_):
        return threading.get_ident()

    def outer(index):
        outer_started.wait()  # one outer item on each thread
        return threading.get_ident(), _pool.run_items(inner, 4)

    results = _pool.run_items(outer, 3)
    assert len({thread for thread, _ in results}) == 3
    for thread, inner_threads in results:
        assert inner_threads == [thread] * 4
    # Outside any shared items, the same call shares its items again.
    all_started = threading.Barrier(3, timeout=60)

    def meeting(_):
        all_started.wait()
        return threading.get_ident()

    assert len(set(_pool.run_items(meeting, 3))) == 3


def test_no_helper_thread_outlives_a_call(monkeypatch):
    monkeypatch.setattr(_pool, "_thread_limit", 3)

    def helpers_alive():
        return [t for t in threading.enumerate() if t.name.startswith("specmap")]

    assert _pool.run_items(lambda i: i, 6) == list(range(6))
    assert helpers_alive() == []

    def run_item(index):
        if index == 4:
            raise ValueError(index)
        return index

    with pytest.raises(ValueError):
        _pool.run_items(run_item, 6)
    assert helpers_alive() == []
