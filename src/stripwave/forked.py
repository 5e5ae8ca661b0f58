"""Jobs at once: the first in this process, each later one in a forked child.

`at_once(fn, jobs, width)` yields fn(arg) for each job in order, as a loop
over the jobs would, while up to `width` of them run at the same time.  A
child made by os.fork shares everything built before the fork, so the
caller builds what the jobs share first; the child sends its result back
through a pipe with pickle, and the parent raises the child's warnings and
re-raises its exception at that job's turn.  No multiprocessing: a child
costs one fork, one pipe and one thread that ends it when the parent dies.

planarity alone runs jobs at once, so the CLI imports this module only
there.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import traceback
import warnings


def _exit_with_parent(lifeline: int) -> None:
    """End this child once no process holds the write end of `lifeline`
    open, which happens when the parent dies."""
    os.read(lifeline, 1)
    os._exit(1)


def _outcome(fn, arg) -> bytes:
    """fn(arg), pickled with the warnings it raised as (result, error,
    warnings).  error is None, or the exception fn raised as (class, args,
    attributes, traceback text); one that pickle cannot send goes as a
    RuntimeError naming its class."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            result, error = fn(arg), None
        except Exception as exc:
            result, error = None, (type(exc), exc.args, vars(exc))
            try:
                pickle.dumps(error)
            except Exception:
                error = (RuntimeError, (f"{type(exc).__name__}: {exc}",), {})
            error += (traceback.format_exc(),)
    return pickle.dumps((result, error, [(str(w.message), w.category, w.filename, w.lineno)
                                         for w in caught]))


class _Child:
    """fn(arg) in a child made by os.fork; it sends its _outcome back
    through a pipe and exits through os._exit, so it never runs the exit
    code of the parent's interpreter.  It also exits once the parent dies
    (_exit_with_parent on `lifeline`, whose write end `keep_alive` the
    parent holds)."""

    def __init__(self, fn, arg, lifeline: int, keep_alive: int):
        sys.stdout.flush()
        sys.stderr.flush()
        self.fd, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.fd)
            os.close(write_end)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(self.fd)
                os.close(keep_alive)
                threading.Thread(target=_exit_with_parent, args=(lifeline,),
                                 daemon=True).start()
                payload = _outcome(fn, arg)
                with open(write_end, "wb") as pipe:
                    pipe.write(payload)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)

    def result(self, name: str):
        """Wait for the child and reap it; raise its warnings again here and
        return its result or re-raise its exception.  A child that died
        without a result raises a RuntimeError naming its signal or status."""
        with open(self.fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        os.close(self.fd)
        if code or not data:
            how = (f"was killed by signal {-code} ({signal.Signals(-code).name})" if code < 0
                   else f"exited with status {code}")
            raise RuntimeError(f"the child process that ran {name} {how} without a result")
        result, error, caught = pickle.loads(data)
        for message, category, filename, lineno in caught:
            # from its module, with its registry, as if raised here: a
            # "once" filter then counts it with this process's warnings
            module = next((m for m in list(sys.modules.values())
                           if getattr(m, "__file__", None) == filename), None)
            warnings.warn_explicit(
                message, category, filename, lineno, module=getattr(module, "__name__", None),
                registry=vars(module).setdefault("__warningregistry__", {}) if module else None)
        if error is not None:
            cls, args, attributes, text = error
            exc = cls.__new__(cls, *args)
            exc.__dict__.update(attributes)
            exc.add_note(f"raised in the child process that ran {name}:\n{text}")
            raise exc
        return result

    def kill(self) -> None:
        """End the child if it is still unreaped, and reap it."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
            os.close(self.fd)


def at_once(fn, jobs: dict, width: int):
    """Yield (fn(arg), forked) for each arg of `jobs` ({name: arg}), in order.

    The first job runs in this process.  Each later one runs in a _Child,
    with at most `width` jobs running at once; a child's warnings and
    exception are raised here at its job's turn, and an error naming the
    job when it died without a result.  With width < 2, or without
    os.fork, every job runs here in turn.  Closing the generator early kills
    and reaps every child still running.
    """
    names = list(jobs)
    width = min(len(names), width if hasattr(os, "fork") else 1)
    if width < 2:
        for arg in jobs.values():
            yield fn(arg), False
        return
    lifeline, keep_alive = os.pipe()
    children = {}  # job index -> its _Child, until its result is read
    forked = 1
    try:
        for i, name in enumerate(names):
            # while this process runs the first job, that job takes one place
            while forked < len(names) and len(children) < width - (i == 0):
                children[forked] = _Child(fn, jobs[names[forked]], lifeline, keep_alive)
                forked += 1
            yield (fn(jobs[name]), False) if i == 0 else (children[i].result(name), True)
            children.pop(i, None)
    finally:
        for child in children.values():
            child.kill()
        os.close(lifeline)
        os.close(keep_alive)
