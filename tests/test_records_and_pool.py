"""The record base and the thread pool that ``singwald/__init__`` gives
every module."""

import sys
import threading
import time

import pytest

from singwald import _Record, _ThreadPool
from singwald import sampler, verify


class _Point(_Record):
    x: float
    y: float = 0.0
    tag: str = "p"
    _HIDDEN = ("tag",)

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x must be nonnegative")
        object.__setattr__(self, "x", float(self.x))


class _Point3(_Point):
    z: float = 0.0


def test_record_binds_fields_by_position_keyword_and_default():
    assert vars(_Point(1, 2)) == {"x": 1.0, "y": 2, "tag": "p"}
    assert vars(_Point(y=3, x=1, tag="q")) == {"x": 1.0, "y": 3, "tag": "q"}
    assert vars(_Point3(1, 2, "q", 4)) == {"x": 1.0, "y": 2, "tag": "q", "z": 4}
    for args, kwargs in [((), {}), ((1, 2, 3, 4), {}), ((1,), {"x": 2}), ((1,), {"w": 2})]:
        with pytest.raises(TypeError):
            _Point(*args, **kwargs)
    with pytest.raises(ValueError, match="nonnegative"):
        _Point(-1)


def test_record_is_immutable_equal_by_type_and_fields_and_hashes_alike():
    p = _Point(1, 2)
    for mutate in (lambda: setattr(p, "x", 3), lambda: setattr(p, "w", 3), lambda: delattr(p, "x")):
        with pytest.raises(AttributeError):
            mutate()
    assert p == _Point(1.0, 2) and hash(p) == hash(_Point(1.0, 2)) == hash((1.0, 2, "p"))
    assert p != _Point(1, 3) and p != _Point3(1, 2) and p != (1.0, 2, "p")
    assert repr(p) == "_Point(x=1.0, y=2)" and repr(_Point3(1)) == "_Point3(x=1.0, y=0.0, z=0.0)"


def _slow_square(i: int) -> int:
    # later items finish first, so the order of the results is the pool's
    time.sleep(0.002 * (5 - i))
    return i * i


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_pool_returns_results_in_item_order(workers):
    with _ThreadPool(max_workers=workers) as pool:
        assert pool.map(_slow_square, range(5)) == [0, 1, 4, 9, 16]
        assert pool.map(_slow_square, []) == []


def test_pool_runs_at_most_its_workers_and_one_thread_per_item():
    names = set()
    lock = threading.Lock()

    def task(i):
        with lock:
            names.add(threading.current_thread().name)
        time.sleep(0.001)
        return i

    with pytest.raises(ValueError, match="at least 1"):
        _ThreadPool(max_workers=0)
    assert _ThreadPool(max_workers=3).map(task, range(9)) == list(range(9))
    assert 1 <= len(names) <= 3 and threading.current_thread().name not in names
    names.clear()
    _ThreadPool(max_workers=8).map(task, range(2))
    assert len(names) <= 2


def test_one_worker_or_one_item_runs_on_the_calling_thread():
    # a pool thread would take its own malloc arena for no speed-up
    def task(i):
        return threading.current_thread()

    caller = threading.current_thread()
    assert _ThreadPool(max_workers=1).map(task, range(4)) == [caller] * 4
    assert _ThreadPool(max_workers=8).map(task, iter([0])) == [caller]


def test_run_suite_at_one_thread_runs_each_entry_on_the_calling_thread(monkeypatch):
    seen = []

    def row(name):
        def check(n, seed):
            seen.append(threading.current_thread())
            return [verify.VerificationResult(name, "theorem", 0.0, 1.0, n, seed)]
        return check

    registry = tuple(((name,), "theorem", row(name)) for name in "abc")
    monkeypatch.setattr(verify, "_REGISTRY", registry)
    results = verify.run_suite("theorems", n=100, seed=1, threads=1)
    assert [r.name for r in results] == ["a", "b", "c"]
    assert seen == [threading.current_thread()] * 3


def test_pool_runs_each_item_once_under_fast_thread_switches():
    # more workers than cores, switching threads every microsecond: an item
    # handed out twice or lost would show in the counts or the results
    started, done = [], []

    def task(i):
        started.append(i)
        return -i

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(
            target=lambda: done.append(_ThreadPool(max_workers=8).map(task, range(5000))))
        caller.start()
        caller.join(timeout=10)
    finally:
        sys.setswitchinterval(switch)
    assert not caller.is_alive()
    assert done == [[-i for i in range(5000)]] and sorted(started) == list(range(5000))


def test_pool_raises_the_earliest_failure_and_starts_no_later_item():
    started = []

    def task(i):
        started.append(i)
        if i in (1, 3):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 1"):
        _ThreadPool(max_workers=1).map(task, range(6))
    assert started == [0, 1]
    started.clear()
    with pytest.raises(ValueError, match="item 1"):
        _ThreadPool(max_workers=2).map(task, range(6))
    assert set(started) <= {0, 1, 2, 3}


def test_modules_map_on_the_pool_under_the_executor_name():
    # the benchmark's tracer swaps its traced pool in under this name
    assert sampler.ThreadPoolExecutor is _ThreadPool
    assert verify.ThreadPoolExecutor is _ThreadPool


def test_run_suite_raises_a_failing_check_at_two_threads(monkeypatch):
    def row(name):
        return lambda n, seed: [verify.VerificationResult(name, "theorem", 0.0, 1.0, n, seed)]

    def broken(n, seed):
        raise RuntimeError("check could not run")

    registry = ((("a",), "theorem", row("a")), (("b",), "theorem", row("b")))
    monkeypatch.setattr(verify, "_REGISTRY", registry)
    assert [r.name for r in verify.run_suite("theorems", n=100, seed=1, threads=2)] == ["a", "b"]
    monkeypatch.setattr(verify, "_REGISTRY", registry[:1] + ((("c",), "theorem", broken),) + registry[1:])
    with pytest.raises(RuntimeError, match="could not run"):
        verify.run_suite("theorems", n=100, seed=1, threads=2)

