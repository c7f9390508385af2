"""The CPU lane: per-layer PQ construction split with one helper interpreter.

PQCache runs K-Means on otherwise idle CPU cores, beside the model's compute
(paper §3.3).  On a host with a second usable core this module keeps one
helper interpreter per process, shared by every engine, worker and fleet in
it, and :func:`map_layers` splits a model's per-layer jobs with it: layers
1, 3, 5, ... go to the helper, the others run in the caller, and the results
come back in layer order.  Threads cannot do this: the K-Means seeding loop
holds the GIL.

The helper is ``sys.executable -c ...`` started with the caller's
``sys.path`` and environment, so it imports the same ``repro``, NumPy and
BLAS and computes the same bits as the inline path.  It exchanges
pickle-protocol-5 messages over its stdin and stdout, each a header of
sizes, the pickle, and the bytes of every contiguous array in it sent
beside the pickle rather than copied into it.  A request is ``(job, [args,
...])``, a reply ``("ok", [result, ...])`` or ``("error", exception,
traceback text)``.  Jobs must be importable module-level functions (pickle
sends them by reference).

Life cycle:

* :func:`start` launches the helper without waiting for it (the first
  :class:`~repro.serve.InferenceEngine` calls it).  Start-up takes about a
  third of a second, mostly imports; until the helper reports ready every
  job runs inline.  With one usable CPU the helper is never started.
* A job that raises in the helper re-raises its exception type in the
  caller; the helper stays.
* A helper that died or sent a short reply is dropped and its share re-runs
  inline (same bits); the next call starts a new one.  A helper that dies
  before it is ready disables the lane for the process.
* If the caller's own share raises, the helper is dropped, so no reply is
  left unread.
* A process forked from the owner never touches the owner's helper.
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
from contextlib import suppress
from typing import Callable, Sequence

import numpy as np

__all__ = ["map_layers", "start", "usable_cpus"]

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
        if not self.ready and select.select([self.reader], [], [], 0)[0]:
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


_helper: _Helper | None = None
#: set once a helper could not be started or died before it was ready
_disabled = False


def start() -> None:
    """Start this process's helper if it may have one and has none; returns
    at once, without waiting for the helper to be ready."""
    global _helper, _disabled
    if _helper is not None and _helper.owner != os.getpid():
        _helper = None  # forked: the helper is the parent's, never ours
    if _helper is not None or _disabled or usable_cpus() < 2:
        return
    try:
        _helper = _Helper()
    except OSError:
        _disabled = True


def _drop() -> None:
    """Stop and forget the helper (the next :func:`start` makes a new one)."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None and helper.owner == os.getpid():
        helper.close()


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


def map_layers(job: Callable, layer_args: Sequence[tuple]) -> list:
    """``[job(*args) for args in layer_args]``, every other layer's job run
    by the helper beside the caller's.

    Args:
        job: an importable module-level function.
        layer_args: one argument tuple per layer, in layer order.

    Returns:
        The jobs' results in layer order, bit for bit the inline results.
    """
    layer_args = list(layer_args)
    helper = _ready_helper() if len(layer_args) > 1 else None
    if helper is None:
        return [job(*args) for args in layer_args]
    # Contiguous arrays travel as raw bytes beside the pickle, not in it.
    theirs = [
        tuple(np.ascontiguousarray(a) if isinstance(a, np.ndarray) else a for a in args)
        for args in layer_args[1::2]
    ]
    # Pickled whole before any of it is written: a job or argument that
    # cannot be pickled raises here and leaves the stream in step.
    request = _frames((job, theirs))
    try:
        try:
            _write(helper.writer, request)
        except OSError:  # the helper is gone
            _drop()
            return [job(*args) for args in layer_args]
        mine = [job(*args) for args in layer_args[::2]]
        try:
            reply = _read(helper.reader)
        except _BROKEN:  # it died, or its reply was cut short
            _drop()
            reply = ("ok", [job(*args) for args in theirs])
    except BaseException:
        _drop()  # a reply still in flight goes with the helper
        raise
    if reply[0] != "ok":
        _, error, remote = reply
        raise error from _RemoteTraceback(remote)
    results = [None] * len(layer_args)
    results[::2], results[1::2] = mine, reply[1]
    return results


def _serve() -> None:
    """The helper's loop: run each request's jobs, reply, exit on EOF."""
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
            job, layer_args = _read(reader)
        except EOFError:
            return
        try:
            reply = _frames(("ok", [job(*args) for args in layer_args]))
        except Exception as error:
            remote = traceback.format_exc()
            try:
                reply = _frames(("error", error, remote))
            except Exception:
                reply = _frames(("error", RuntimeError(remote), remote))
        _write(writer, reply)
