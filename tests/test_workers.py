"""Worker processes beside the calling one: replies, failures, cleanup."""

import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

import etsafe
from etsafe.engine import RunAbortedError
from etsafe.workers import started_workers

SRC = os.path.dirname(os.path.dirname(os.path.abspath(etsafe.__file__)))
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="platform cannot fork"
)


def abort(t):
    raise RunAbortedError("injected abort", t, [1.0, 2.0])


def die():
    os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
class TestStartedWorkers:
    def test_values_and_errors_come_back_in_order(self):
        calls = [("first", divmod, (7, 2)), ("second", abort, (4.5,))]
        with started_workers(calls, "its call", start_method="fork") as workers:
            assert [w.name for w in workers] == ["first", "second"]
            assert workers[0].result() == (3, 1)
            ok, err = workers[1].reply()
        assert not ok and isinstance(err, RunAbortedError)
        assert (err.reason, err.t, err.x.tolist()) == ("injected abort", 4.5, [1.0, 2.0])
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_raises_with_its_exit_code(self):
        with pytest.raises(ChildProcessError, match="dying exited with code -9 before its call ended"):
            with started_workers([("dying", die, ())], "its call", start_method="fork") as (w,):
                w.result()
        assert multiprocessing.active_children() == []

    def test_workers_are_killed_when_the_block_raises(self):
        with pytest.raises(KeyboardInterrupt):
            with started_workers([("sleeper", signal.pause, ())], "its call", start_method="fork"):
                raise KeyboardInterrupt
        assert multiprocessing.active_children() == []

    def test_buffered_output_is_written_once(self):
        # stdout to a pipe is block-buffered: unflushed at the fork, the
        # worker would write its copy of the text again when it exits.
        # started_workers relies on multiprocessing's flush before it starts
        # a process; this fails if that flush is gone.  PYTHONUNBUFFERED
        # would leave nothing buffered, so the child runs without it
        script = (
            "import sys\n"
            "from etsafe.workers import started_workers\n"
            "print('before the fork')\n"
            "with started_workers([('w', divmod, (7, 2))], 'its call', start_method='fork') as (w,):\n"
            "    w.result()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "before the fork\n"
