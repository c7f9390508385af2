"""The CPU lane: per-layer PQ construction run beside the caller by one
helper interpreter.

PQCache runs K-Means on otherwise idle CPU cores, beside the model's compute
(paper §3.3).  On a host with a second usable core this module keeps one
helper interpreter per process, shared by every engine, worker and fleet in
it.  Threads cannot do this: the K-Means seeding loop holds the GIL.

Tickets
-------
:func:`submit` takes a model's per-layer jobs and returns a :class:`Ticket`
at once; :meth:`Ticket.result` collects the jobs' results in layer order,
bit for bit the inline results.  :func:`map_layers` is submit-then-collect.

* Submitted jobs wait in one FIFO queue in the caller.  At most one job is
  at the helper at a time: a write to a busy helper would block on the
  pipe.  :func:`pump` never blocks: it reads a finished reply and hands the
  next queued job to an idle helper.  :func:`submit` and
  :meth:`Ticket.result` pump, and the serving engine pumps at the top of
  every step, before each prefill chunk and before each decode round.
* A collect runs its ticket's still-queued jobs inline and waits only on a
  job the helper has already started, so it never takes longer than
  running the jobs it still needs.
* A submitted ticket owns its inputs: its arrays are copied at submit, so
  the caller may overwrite or release what it passed (pool blocks reused,
  swapped out or copied on write) before a job is sent or re-run.
  :func:`map_layers` collects before it returns and copies nothing.
* :meth:`Ticket.cancel` takes the ticket's queued jobs out of the queue, so
  the helper never runs them; a later collect runs them inline.
* With one usable CPU, or no helper, :func:`submit` runs the jobs inline at
  once: a job deferred inline only moves its cost to the collect.

:func:`stats` counts the lane's work: jobs submitted, run in the helper and
run inline, the helper's busy seconds (it times each job and sends the time
with the reply) and the seconds callers waited at collect.

Wire and life cycle
-------------------
The helper is ``sys.executable -c ...`` started with the caller's
``sys.path`` and environment, so it imports the same ``repro``, NumPy and
BLAS and computes the same bits as the inline path.  It exchanges
pickle-protocol-5 messages over its stdin and stdout, each a header of
sizes, the pickle, and the bytes of every contiguous array in it sent
beside the pickle rather than copied into it.  A request is ``(job, args)``,
a reply ``(busy_seconds, "ok", result)`` or ``(busy_seconds, "error",
exception, traceback text)``.  Jobs must be importable module-level
functions (pickle sends them by reference); a job or argument that cannot
be pickled raises at submit.

* :func:`start` launches the helper without waiting for it (the first
  :class:`~repro.serve.InferenceEngine` calls it).  Start-up takes about a
  third of a second, mostly imports; until the helper reports ready, jobs
  stay queued (and run inline at collect).  With one usable CPU the helper
  is never started.
* A job that raises in the helper re-raises its exception type at collect;
  the helper stays.  A job that raises inline raises out of the collect.
* A helper that died or sent a short reply is dropped; the job it held goes
  back to the front of the queue, so it and every queued job run inline at
  collect or in the next helper (same bits).  A helper that dies before it
  is ready disables the lane for the process.
* A process forked from the owner never touches the owner's helper: the
  child keeps the queue, and the job the parent's helper held is queued
  again in the child.
* The helper exits when its stdin closes, so it does not outlive the
  process that started it, however that process ends.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import signal
import struct
import subprocess
import sys
import traceback
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

__all__ = ["LaneStats", "Ticket", "map_layers", "pump", "start", "stats", "submit",
           "usable_cpus"]

#: the helper's whole program: the caller's import path, then the serve loop
_BOOT = (
    "import sys; sys.path[:] = sys.argv[1:]; "
    "from repro.core.cpu_lane import _serve; _serve()"
)
#: what the helper writes once its imports are done
_READY = "ready"
#: a reply that could not be read: the helper died or the stream broke
_BROKEN = (EOFError, OSError, pickle.UnpicklingError)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class LaneStats:
    """What this process's lane has done; :func:`stats` returns a copy.

    Every job submitted and collected runs exactly once, in the helper or
    inline, so ``helper_jobs + inline_jobs == submitted`` once every ticket
    is collected (a cancelled job that is never collected runs nowhere).
    """

    #: jobs passed to :func:`submit` or :func:`map_layers`
    submitted: int = 0
    #: jobs whose result came back from the helper
    helper_jobs: int = 0
    #: jobs run in the calling process
    inline_jobs: int = 0
    #: seconds the helper spent running jobs, as it timed them
    helper_busy_s: float = 0.0
    #: seconds collects waited on a job the helper had started
    collect_wait_s: float = 0.0


class _Helper:
    """One helper process and the pipes to it."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _BOOT, *sys.path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.writer = self.proc.stdin
        self.reader = self.proc.stdout
        self.ready = False

    def poll_ready(self) -> bool:
        """Whether the helper has reported ready; never blocks for long."""
        if not self.ready and _readable(self.reader):
            if _read(self.reader) != _READY:
                raise pickle.UnpicklingError("helper sent no ready message")
            self.ready = True
        return self.ready

    def close(self) -> None:
        for stream in (self.writer, self.reader):
            with suppress(OSError):
                stream.close()
        self.proc.kill()
        self.proc.wait()


class _Job:
    """One layer's job: queued in the caller, at the helper, or done."""

    __slots__ = ("fn", "args", "frames", "at_helper", "done", "value", "error")

    def __init__(self, fn: Callable, args: tuple) -> None:
        self.fn, self.args = fn, args
        self.frames: list | None = None
        self.at_helper = self.done = False
        self.value: object = None
        #: ``(exception, remote traceback text)`` of a job that raised in the helper
        self.error: tuple | None = None

    def finish(self, value: object) -> None:
        self.value, self.done, self.at_helper, self.frames = value, True, False, None


_helper: _Helper | None = None
#: set once a helper could not be started or died before it was ready
_disabled = False
#: the process the queue belongs to (a forked child adopts it)
_owner = os.getpid()
#: submitted jobs not yet sent, oldest first
_queue: "deque[_Job]" = deque()
#: the one job at the helper
_sent: _Job | None = None
_stats = LaneStats()


def _adopt_fork() -> None:
    """In a process forked from the owner, forget the owner's helper; the
    job it held is queued again here."""
    global _owner, _helper
    if _owner == os.getpid():
        return
    _owner, _helper = os.getpid(), None
    _requeue_sent()


def _requeue_sent() -> None:
    """Put the job the helper held back at the front of the queue."""
    global _sent
    if _sent is not None:
        _sent.at_helper = False
        _queue.appendleft(_sent)
        _sent = None


def start() -> None:
    """Start this process's helper if it may have one and has none; returns
    at once, without waiting for the helper to be ready."""
    global _helper, _disabled
    _adopt_fork()
    if _helper is not None or _disabled or usable_cpus() < 2:
        return
    try:
        _helper = _Helper()
    except OSError:
        _disabled = True


def _drop() -> None:
    """Stop and forget the helper (the next :func:`start` makes a new one);
    the job it held goes back to the front of the queue."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None and helper.owner == os.getpid():
        helper.close()
        _requeue_sent()


atexit.register(_drop)


def _ready_helper() -> _Helper | None:
    """The helper, if jobs may go to it now."""
    global _disabled
    if usable_cpus() < 2:
        return None
    start()
    if _helper is None:
        return None
    try:
        return _helper if _helper.poll_ready() else None
    except _BROKEN:
        _drop()
        _disabled = True
        return None


def _readable(stream) -> bool:
    return bool(select.select([stream], [], [], 0)[0])


def _frames(message: object) -> "list":
    """``message`` as the frames :func:`_write` sends: a header of sizes,
    the pickle, then each array's bytes out of band (not copied)."""
    buffers: list = []
    head = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
    raws = [buffer.raw() for buffer in buffers]
    sizes = [len(head)] + [raw.nbytes for raw in raws]
    return [struct.pack(f"<Q{len(sizes)}Q", len(sizes), *sizes), head, *raws]


def _write(stream, frames: list) -> None:
    for frame in frames:
        stream.write(frame)
    stream.flush()


def _read_exact(stream, size: int) -> bytearray:
    data = bytearray(size)
    view, done = memoryview(data), 0
    while done < size:
        got = stream.readinto(view[done:])
        if not got:
            raise EOFError(f"message cut short at {done} of {size} bytes")
        done += got
    return data


def _read(stream) -> object:
    (count,) = struct.unpack("<Q", _read_exact(stream, 8))
    head_size, *sizes = struct.unpack(f"<{count}Q", _read_exact(stream, 8 * count))
    head = _read_exact(stream, head_size)
    return pickle.loads(head, buffers=[_read_exact(stream, size) for size in sizes])


class _RemoteTraceback(Exception):
    """Carries the helper's traceback as the ``__cause__`` of a re-raised
    job exception."""

    def __str__(self) -> str:
        return self.args[0]


def _run_inline(job: _Job) -> None:
    _stats.inline_jobs += 1
    job.finish(job.fn(*job.args))


def _receive() -> None:
    """Read the reply to the job at the helper (blocks until it comes)."""
    global _sent
    try:
        reply = _read(_helper.reader)
    except _BROKEN:  # it died, or its reply was cut short
        _drop()
        return
    except BaseException:
        _drop()  # a reply half read goes with the helper
        raise
    job, _sent = _sent, None
    busy, status, *payload = reply
    _stats.helper_busy_s += busy
    _stats.helper_jobs += 1
    if status == "ok":
        job.finish(payload[0])
    else:
        job.error = tuple(payload)
        job.finish(None)


def pump() -> None:
    """Take the helper's finished reply and hand it the next queued job, if
    it is idle and ready; never blocks on a running job."""
    global _sent
    _adopt_fork()
    if _sent is not None:
        if not _readable(_helper.reader):
            return
        _receive()
    if not _queue or _sent is not None or _ready_helper() is None:
        return
    job = _queue.popleft()
    try:
        _write(_helper.writer, job.frames)
    except OSError:  # the helper is gone
        _queue.appendleft(job)
        _drop()
        return
    job.at_helper, _sent = True, job


def _unqueue(job: _Job) -> None:
    with suppress(ValueError):  # cancelled: already out of the queue
        _queue.remove(job)


def _owned(value: object) -> object:
    return np.array(value, order="C") if isinstance(value, np.ndarray) else value


class Ticket:
    """Pending per-layer jobs; :meth:`result` collects them in layer order."""

    def __init__(self, jobs: "list[_Job]") -> None:
        self._jobs = jobs

    def result(self) -> list:
        """The jobs' results in layer order, bit for bit the inline results.

        Runs the ticket's queued jobs inline, pumping before each so that an
        idle helper takes the next queued job meanwhile, then waits for the
        ones the helper has started.  Raises what a job raised (a helper
        job's exception has the helper's traceback as its cause).
        """
        _adopt_fork()
        try:
            for job in self._jobs:
                if not (job.done or job.at_helper):
                    _unqueue(job)
                    pump()
                    _run_inline(job)
            for job in self._jobs:
                if job.at_helper:
                    started = perf_counter()
                    _receive()
                    _stats.collect_wait_s += perf_counter() - started
                if not job.done:  # the helper was lost and the job came back
                    _unqueue(job)
                    _run_inline(job)
            pump()
        except BaseException:
            self.cancel()
            raise
        for job in self._jobs:
            if job.error is not None:
                error, remote = job.error
                raise error from _RemoteTraceback(remote)
        return [job.value for job in self._jobs]

    def cancel(self) -> None:
        """Take the ticket's queued jobs out of the queue: the helper never
        runs them, and a later :meth:`result` runs them inline."""
        for job in self._jobs:
            if not (job.done or job.at_helper):
                _unqueue(job)


def _submit(
    job: Callable, layer_args: Sequence[tuple], *, owned: bool, at_once: bool
) -> Ticket:
    jobs = [_Job(job, tuple(args)) for args in layer_args]
    _stats.submitted += len(jobs)
    start()
    if at_once or _helper is None or usable_cpus() < 2:
        for each in jobs:
            _run_inline(each)
        return Ticket(jobs)
    for each in jobs:
        if owned:
            each.args = tuple(map(_owned, each.args))
        # Pickled before anything is queued: a job or argument that cannot
        # be pickled raises here.  Contiguous arrays travel as raw bytes
        # beside the pickle, not in it.
        each.frames = _frames((each.fn, tuple(
            np.ascontiguousarray(a) if isinstance(a, np.ndarray) else a
            for a in each.args
        )))
    _queue.extend(jobs)
    pump()
    return Ticket(jobs)


def submit(job: Callable, layer_args: Sequence[tuple]) -> Ticket:
    """Queue ``job(*args)`` for each layer's ``args`` and return at once.

    Args:
        job: an importable module-level function.
        layer_args: one argument tuple per layer, in layer order.  Arrays
            are copied: the caller may change them after the call.

    Returns:
        A :class:`Ticket` whose :meth:`~Ticket.result` is
        ``[job(*args) for args in layer_args]``.
    """
    return _submit(job, layer_args, owned=True, at_once=False)


def map_layers(job: Callable, layer_args: Sequence[tuple]) -> list:
    """``[job(*args) for args in layer_args]``, submitted and collected at
    once: with an idle, ready helper one layer runs there while the caller
    runs the others.  A single job runs inline, as nothing runs beside it.
    The jobs read the caller's arrays in place (nothing outlives the call).
    """
    layer_args = list(layer_args)
    return _submit(
        job, layer_args, owned=False, at_once=len(layer_args) < 2
    ).result()


def stats() -> LaneStats:
    """A copy of this process's lane counters (see :class:`LaneStats`)."""
    return replace(_stats)


def _serve() -> None:
    """The helper's loop: run each request's job, reply, exit on EOF."""
    # Ctrl-C in a terminal reaches the whole process group; the helper
    # ends with its stdin instead.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Private copies of the pipes; a job's print() goes to stderr instead of
    # into the reply stream, and nothing else can read the requests.
    reader = os.fdopen(os.dup(0), "rb")
    writer = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
    import repro.core.pqcache  # noqa: F401  (the imports every job needs)

    _write(writer, _frames(_READY))
    while True:
        try:
            job, args = _read(reader)
        except EOFError:
            return
        started = perf_counter()
        try:
            result = job(*args)
        except Exception as error:
            remote = traceback.format_exc()
            reply = (perf_counter() - started, "error", error, remote)
        else:
            reply = (perf_counter() - started, "ok", result)
        try:
            frames = _frames(reply)
        except Exception as error:  # the result or the exception cannot be pickled
            remote = traceback.format_exc()
            frames = _frames((reply[0], "error", RuntimeError(remote), remote))
        _write(writer, frames)
