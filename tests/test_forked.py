"""stripwave.forked: jobs run at once, read in order, as a loop would."""

import os
import pickle
import time
import warnings

import pytest

from stripwave.evolve import IntegratorBlowup
from stripwave.forked import _outcome, at_once


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _timed(arg):
    """Sleeps a little; returns (arg, pid, start, end)."""
    start = time.monotonic()
    time.sleep(0.2)
    return arg, os.getpid(), start, time.monotonic()


@pytest.mark.parametrize("width", [1, 2, 3])
def test_jobs_come_back_in_order_with_at_most_width_running(width):
    jobs = {f"job{i}": i for i in range(5)}
    done = list(at_once(_timed, jobs, width))
    assert [(result[0], forked) for result, forked in done] == [
        (i, i > 0 and width > 1) for i in range(5)]
    pids = [result[1] for result, _ in done]
    assert pids[0] == os.getpid() and len(set(pids)) == (5 if width > 1 else 1)
    # at no start time do more than `width` jobs run
    spans = [result[2:] for result, _ in done]
    assert max(sum(s <= start < e for s, e in spans) for start, _ in spans) == width
    _no_child_left()


def test_without_fork_every_job_runs_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    done = list(at_once(_timed, {"a": 1, "b": 2}, 2))
    assert [(result[:2], forked) for result, forked in done] == [
        ((1, os.getpid()), False), ((2, os.getpid()), False)]


def test_a_failed_fork_ends_the_jobs_and_leaves_no_child(monkeypatch):
    def no_fork():
        raise BlockingIOError("injected")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = _open_fds()
    with pytest.raises(BlockingIOError, match="injected"):
        list(at_once(_timed, {"a": 1, "b": 2}, 2))
    _no_child_left()
    assert _open_fds() == fds  # both pipes closed


def test_closing_early_kills_and_reaps_the_children():
    fds = _open_fds()
    done = at_once(_timed, {f"job{i}": i for i in range(3)}, 3)
    first, forked = next(done)
    assert first[0] == 0 and not forked
    done.close()
    _no_child_left()
    assert _open_fds() == fds


class _Local(Exception):
    """Defined at module level, so pickle can send it."""


def test_outcome_carries_result_warnings_and_exception():
    def warns(arg):
        warnings.warn(f"arg {arg}")
        return arg + 1

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        result, error, caught = pickle.loads(_outcome(warns, 1))
    assert (result, error) == (2, None)
    assert [(message, category) for message, category, *_ in caught] == [
        ("arg 1", UserWarning)]

    def blows_up(arg):
        # its __init__ takes two arguments and formats them into one
        raise IntegratorBlowup("non-finite values in a", 0.5)

    result, (cls, args, attributes, text), _ = pickle.loads(_outcome(blows_up, 0))
    assert result is None and cls is IntegratorBlowup
    assert args == ("non-finite values in a at t = 0.5",)
    assert attributes == {"reason": "non-finite values in a", "time": 0.5}
    assert "in blows_up" in text

    class Unpicklable(Exception):
        pass

    def raises(arg):
        raise Unpicklable("local class")

    _, (cls, args, attributes, _), _ = pickle.loads(_outcome(raises, 0))
    assert (cls, args, attributes) == (RuntimeError, ("Unpicklable: local class",), {})


def test_a_child_exception_is_rebuilt_with_its_attributes():
    def raises(arg):
        if arg:
            exc = _Local("in the child")
            exc.detail = arg
            raise exc
        return arg

    done = at_once(raises, {"here": 0, "there": 7}, 2)
    assert next(done) == (0, False)
    with pytest.raises(_Local, match="in the child") as err:
        next(done)
    assert err.value.detail == 7
    assert err.value.__notes__[0].startswith("raised in the child process that ran there:")
    _no_child_left()
