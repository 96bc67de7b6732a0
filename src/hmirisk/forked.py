"""Independent tasks on every usable CPU, by fork, with results in task order.

A forked child starts with the caller's memory, so nothing is loaded or
pickled on the way in. Plain ``os.fork``: importing and starting
``multiprocessing`` alone costs about a megabyte of memory."""
from __future__ import annotations

import os
import pickle
import sys
from typing import Callable, Sequence


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity, else the CPU count); 1
    where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _outcome(task: Callable) -> tuple:
    try:
        return task(), None
    except Exception as err:
        return None, err


def fork_map(tasks: Sequence[tuple[str, Callable]], meanwhile: Callable = lambda: None) -> tuple[list, object]:
    """The results of ``tasks``, ``(name, function)`` pairs, in task order,
    and the result of ``meanwhile()``. Each task after the first runs in a
    forked child, while this process runs ``meanwhile`` and then the first.
    Every child is heard from and reaped before this returns or raises. The
    error raised is the first in task order; a child that exits without
    sending its outcome is "<name> exited with code N before sending its
    result" (ChildProcessError)."""
    sys.stdout.flush()  # a child must not write out a copy of buffered output
    sys.stderr.flush()
    pipes, pids = [], []
    try:
        for _, task in tasks[1:]:
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: send the pickled outcome and exit, whatever happens
                try:
                    os.close(reader)  # so that a parent that stops reading breaks the pipe
                    with os.fdopen(writer, "wb") as out:
                        pickle.dump(_outcome(task), out)
                    os._exit(0)
                finally:
                    os._exit(1)  # the outcome did not pickle, or the pipe broke
            os.close(writer)
            pipes.append(os.fdopen(reader, "rb"))
            pids.append(pid)
        extra = meanwhile()
        outcomes = [_outcome(tasks[0][1])]
        received = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()  # a child still sending gets a broken pipe and exits
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for (name, _), data, code in zip(tasks[1:], received, codes):
        try:
            outcomes.append(pickle.loads(data))
        except (EOFError, pickle.UnpicklingError):  # nothing, or a part, was sent
            outcomes.append((None, ChildProcessError(f"{name} exited with code {code} before sending its result")))
    for _, err in outcomes:
        if err is not None:
            raise err
    return [result for result, _ in outcomes], extra
