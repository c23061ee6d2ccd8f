"""Worker processes that run beside the calling process.

``compare`` runs its greedy arm in a worker while the calling process runs
the maneuver arm, and ``sample-tau`` runs every lane shard after the first
in a worker of its own.  A worker runs one call and sends back
``(True, value)`` or ``(False, exception)``.  It exits as soon as the
process that started it is gone: a parent killed by a signal runs no
cleanup, and the worker's result would be moot.  The parent's sentinel is
watched rather than ``os.getppid()``, because under the forkserver start
method the OS parent is the fork server.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Any, Callable, Iterator, Optional, Sequence


def _serve(conn, fn: Callable, args: tuple) -> None:
    """Worker process body: send back ``fn(*args)`` or the exception it raised."""
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    def watch() -> None:
        wait([parent_process().sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()
    try:
        reply = (True, fn(*args))
    except BaseException as err:
        reply = (False, err)
    conn.send(reply)


class Worker:
    """One started worker: its process and the read end of its reply pipe."""

    def __init__(self, name: str, task: str, process, conn) -> None:
        self.name = name
        self.task = task
        self.process = process
        self.conn = conn

    def reply(self) -> tuple[bool, Any]:
        """The worker's ``(ok, value)``, waiting for it; ChildProcessError,
        with the exit code, if the worker exited without replying."""
        try:
            return self.conn.recv()
        except EOFError:
            self.process.join()
            raise ChildProcessError(
                f"{self.name} exited with code {self.process.exitcode} before {self.task} ended"
            ) from None

    def result(self) -> Any:
        """The worker's value; its exception is raised here."""
        ok, value = self.reply()
        if not ok:
            raise value
        return value


@contextlib.contextmanager
def started_workers(
    calls: Sequence[tuple[str, Callable, tuple]],
    task: str,
    start_method: Optional[str] = None,
) -> Iterator[list[Worker]]:
    """Start one daemon worker per ``(name, fn, args)`` of ``calls`` and
    yield them, in order; ``task`` names what a worker runs, for the error
    of one that exits without replying.

    ``start_method`` None is the platform's default: the worker then gets
    only what pickles.  Under ``"fork"`` it inherits ``args`` and the
    calling process's memory as they are.  Every worker has exited when the
    block is left; if the block raised (a KeyboardInterrupt too), the
    workers are killed first rather than waited for.
    """
    # multiprocessing costs ≈15 ms of start-up (python -X importtime) that
    # the commands without workers need not pay
    import multiprocessing

    ctx = multiprocessing.get_context(start_method)
    # no flush of stdio here: every start method flushes stdout and stderr
    # before it starts a process, so a forked worker has no buffered output
    # of its parent's to write a second time
    workers: list[Worker] = []
    try:
        for name, fn, args in calls:
            recv, send = ctx.Pipe(duplex=False)
            process = ctx.Process(target=_serve, args=(send, fn, args), daemon=True)
            process.start()
            send.close()
            workers.append(Worker(name, task, process, recv))
        yield workers
    except BaseException:
        for w in workers:
            w.process.kill()
        raise
    finally:
        for w in workers:
            w.process.join()
            w.conn.close()
