"""Independent tasks on every usable CPU, by fork, with results in task order.

A forked child starts with the caller's memory, so nothing is loaded or
pickled on the way in. Each process runs one task first, then claims the
next unclaimed task in task order until none is left, so a process that
finishes early takes work from one that is slower. Plain ``os.fork``:
importing and starting ``multiprocessing`` alone costs about a megabyte of
memory."""
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


class _Counter:
    """The index of the next unclaimed task, shared across a fork: the one
    8-byte token in a pipe. A claim reads the token and writes the next
    value back, so the pipe never holds more than one token, a write never
    blocks, and two processes never claim the same task. No task runs
    while a process holds the token."""

    def __init__(self, start: int):
        self.reader, self.writer = os.pipe()
        os.write(self.writer, start.to_bytes(8, "little"))

    def claim(self, end: int | None = None) -> int:
        """The next unclaimed index; the counter moves on by one, or to
        ``end`` when that is given, which ends all further claims."""
        index = int.from_bytes(os.read(self.reader, 8), "little")
        os.write(self.writer, (index + 1 if end is None else max(index, end)).to_bytes(8, "little"))
        return index

    def close(self) -> None:
        os.close(self.reader)
        os.close(self.writer)


def _run(tasks: Sequence[tuple[str, Callable]], first: int, counter: _Counter) -> dict[int, tuple]:
    """``{index: (result, error)}`` of task ``first`` and of every task this
    process claims after it; a task that raises ends the claims of every
    process, since no later task can hold the first error."""
    outcomes, index = {}, first
    while index < len(tasks):
        try:
            outcomes[index] = tasks[index][1](), None
        except Exception as err:
            outcomes[index] = None, err
            counter.claim(end=len(tasks))
            break
        index = counter.claim()
    return outcomes


def fork_map(tasks: Sequence[tuple[str, Callable]], meanwhile: Callable = lambda: None) -> tuple[list, object]:
    """The results of ``tasks``, ``(name, function)`` pairs, in task order,
    and the result of ``meanwhile()``. ``min(usable_cpus(), len(tasks))``
    processes run them: forked child w runs task w first, while this process
    runs ``meanwhile`` and then task 0; then each process claims the next
    unclaimed task, in task order, until none is left. Every child is heard
    from and reaped before this returns or raises. The error raised is the
    first in task order; a child that exits without sending its outcomes is
    "<name of its first task> exited with code N before sending its result"
    (ChildProcessError), since every other task it claimed comes later."""
    workers = min(usable_cpus(), len(tasks))
    sys.stdout.flush()  # a child must not write out a copy of buffered output
    sys.stderr.flush()
    counter, pipes, pids = _Counter(workers), [], []
    try:
        for first in range(1, workers):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: send the pickled outcomes and exit, whatever happens
                try:
                    os.close(reader)  # so that a parent that stops reading breaks the pipe
                    with os.fdopen(writer, "wb") as out:
                        pickle.dump(_run(tasks, first, counter), out)
                    os._exit(0)
                finally:
                    os._exit(1)  # an outcome did not pickle, or the pipe broke
            os.close(writer)
            pipes.append(os.fdopen(reader, "rb"))
            pids.append(pid)
        try:
            extra = meanwhile()
        except BaseException:
            counter.claim(end=len(tasks))  # the children claim no further task for a call that failed
            raise
        outcomes = _run(tasks, 0, counter)
        received = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()  # a child still sending gets a broken pipe and exits
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        counter.close()
    for first, data, code in zip(range(1, workers), received, codes):
        try:
            outcomes.update(pickle.loads(data))
        except (EOFError, pickle.UnpicklingError):  # nothing, or a part, was sent
            error = ChildProcessError(f"{tasks[first][0]} exited with code {code} before sending its result")
            outcomes[first] = None, error
    results = []
    for index in range(len(tasks)):  # every task before the first error was claimed, so it has an outcome
        result, err = outcomes[index]
        if err is not None:
            raise err
        results.append(result)
    return results, extra
