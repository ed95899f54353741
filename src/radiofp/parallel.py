"""Map a function over items on every usable core: the calling process and
forked children, one level deep.

``fork_map(fn, items)`` returns ``[fn(item) for item in items]``.  The
items are cut into contiguous shares, one per usable core (the cores of
the process's affinity mask, so ``taskset`` restricts them).  The calling
process maps the first share, and one forked child maps each other share
and pickles its results back through a pipe.  Results come back in item
order, and an exception comes back as the one a serial map raises: the
first failing share's, in item order.  With one share, and when called
from a function that a fork_map maps, the map runs serially in the calling
process.

A mapped function writes only to files that its caller names and removes
if the map raises: when a share fails, every child still running is
SIGKILLed, so a file that a child made for itself could be left behind.
`gen-dataset` maps its devices so: each job writes one device's stream
(or the etalon) into a temp file that `dataio.write_iq_files` names in
the calling process and renames or removes once the map has returned or
raised.

Why the fork is safe here: the only threads a radiofp process runs are
OpenBLAS's.  Its ``pthread_atfork`` handler stops its pool before a fork
and rebuilds it after, in the parent and in the child, and no BLAS call
is in flight at the fork, since the calling process forks between its own
calls.  So a child may call BLAS: an `extract` stream's `error_phase`
calls OpenBLAS through ``np.vdot`` (its correlation runs numpy's FFT,
which starts no thread), and a cross-validation job's kNN and logistic
fits and predictions call it through ``np.matmul`` and
``np.linalg.solve``, while a forest's tree groups only sort, index and
reduce with numpy's own loops, and a `gen-dataset` device's simulation
calls no BLAS.
A child runs only the mapped function and leaves by ``os._exit``
(no atexit hook, no second flush of the parent's stdio buffers).
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings

# set while a fork_map runs, in the calling process and so in its
# children: a fork_map called from a mapped function runs serially
_mapping = False

# the results' byte count ahead of their pickle, so a child that dies
# mid-write shows as a short read
_LENGTH_BYTES = 8


def usable_cores() -> int:
    """The cores this process may run on; 1 where the platform cannot say
    (it has no ``sched_getaffinity``), so the map runs serially there."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, the items' contiguous shares
    mapped in this process and in forked children (see the module
    docstring).  Every child is reaped before this returns or raises."""
    global _mapping
    items = list(items)
    n_shares = 1 if _mapping else min(usable_cores(), len(items))
    if n_shares <= 1:
        return [fn(item) for item in items]
    # the first share, this process's, is the smallest: it also forks and
    # unpickles
    bounds = [len(items) * i // n_shares for i in range(n_shares + 1)]
    children = []  # (pid, read end of its pipe), in item order
    _mapping = True
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork(fn, items[lo:hi], children))
        results = [fn(item) for item in items[:bounds[1]]]
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            ok, value = _unpack(data, pid, status)
            if not ok:
                raise value
            results += value
        return results
    finally:
        _mapping = False
        for pid, pipe in children:  # still running, or not yet reaped
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # exited, not reaped
                pass
            os.waitpid(pid, 0)


def _fork(fn, share, children) -> tuple:
    """Fork a child that maps ``share`` and sends the results back;
    returns ``(pid, read end of its pipe)``."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns at a fork of a multi-threaded process, and
            # OpenBLAS's pool counts; the module docstring says why this
            # fork is safe
            warnings.filterwarnings(
                "ignore", category=DeprecationWarning,
                message=r"This process \(pid=\d+\) is multi-threaded, "
                        r"use of fork\(\) may lead to deadlocks")
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        for _, pipe in children:
            pipe.close()
        _child(fn, share, write_fd)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _child(fn, share, write_fd) -> None:
    """Map ``share``, send ``(True, results)`` or ``(False, exception)``,
    and leave by ``os._exit`` whatever happens."""
    status = 1
    try:
        try:
            message = (True, [fn(item) for item in share])
        except BaseException as exc:  # the parent raises it
            message = (False, exc)
        # a result that does not pickle leaves nothing sent, which the
        # parent reports
        data = pickle.dumps(message)
        with os.fdopen(write_fd, "wb") as pipe:  # two writes, no joined copy
            pipe.write(len(data).to_bytes(_LENGTH_BYTES, "little"))
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _unpack(data: bytes, pid: int, status: int) -> tuple:
    """A child's ``(ok, results or exception)`` from what it sent."""
    length = int.from_bytes(data[:_LENGTH_BYTES], "little")
    if len(data) != _LENGTH_BYTES + length:
        if os.WIFSIGNALED(status):
            how = f"was killed by signal {os.WTERMSIG(status)}"
        else:
            how = f"exited with status {os.waitstatus_to_exitcode(status)}"
        raise ChildProcessError(f"worker process {pid} {how} before it sent "
                                f"its whole result ({len(data)} bytes read)")
    return pickle.loads(memoryview(data)[_LENGTH_BYTES:])  # not a copy
