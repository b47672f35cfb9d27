"""Forked worker processes that share one list of work items with this one.

:func:`run` writes the list's chunk tokens into one pipe, then forks its
workers from this process's memory, so the work function, the items and
everything they reach are inherited, not pickled.  The workers and this
process claim chunks from that pipe until none is left and apply the work
function to each chunk they claim, and the workers send their results
back pickled.  Its one caller is the glue walk, which runs the subtrees
below its split order in one call.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

# A list is cut into this many chunks per process, or one chunk per item
# when there are fewer; chunk i holds every chunks-th item from the i-th,
# and each process claims the next chunk whenever it finishes one.  With 4,
# 8, 16 or 32 chunks per process, two-process glue levels of 71 to 362
# parents took the same time within 10% on a 2-core x86-64 VM (medians of
# 21); with p processes, 16 keep each chunk, and so the wait for the last
# one claimed, at 1/(16 p) of a list.  The glue walk pools an order only
# when it fills these chunks, and splits one order below the first that
# does.  On the same VM with two processes, the (4,4) walk to v=11 took
# 23.6-25.2 s split so (at v=7, 362 classes) and 25.6-28.7 s split at
# that first order (v=6, 84); the (3,6) walk to v=12 took 7.5-10.1 s
# split so (v=7, 100), 7.2-9.1 s at the first order (v=6, 37) and
# 6.9-9.9 s at the first order of 100 classes per process (v=8, 356).
_CHUNKS_PER_PROCESS = 16

# Token of the token pipe that ends a process's claims; chunk indices stay
# below it.
_END = 0xFFFF


def allowed_processes() -> int:
    """How many processes a pool started now may have: every usable core
    (``os.sched_getaffinity``) when this process may fork, otherwise 1.

    Forking needs ``os.fork`` and no second thread alive, since a forked
    child of a threaded process can deadlock on a lock that another thread
    held.
    """
    if (not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork")
            or threading.active_count() != 1):
        return 1
    return len(os.sched_getaffinity(0))


class WorkerError(RuntimeError):
    """Stand-in for a worker's exception that does not survive pickling,
    such as an instance of a class defined inside a function.

    It carries the exception's type name, its message and the worker's
    traceback text.
    """

    def __init__(self, type_name: str, message: str, traceback_text: str):
        super().__init__(type_name, message, traceback_text)
        self.type_name = type_name
        self.message = message
        self.traceback_text = traceback_text

    def __str__(self) -> str:
        return f"{self.type_name}: {self.message}"


def _claimed(items, chunks: int, tokens: int, work,
             parent: int | None = None) -> list:
    """``work`` of each chunk of ``items`` that this process claims from the
    ``tokens`` pipe, up to the first end marker, concatenated.

    Chunk ``i`` of ``chunks`` holds every ``chunks``-th item from the
    ``i``-th.  End of file raises :class:`EOFError`: an empty read is not
    chunk 0.  With ``parent``, a chunk is claimed only while ``parent`` is
    this process's parent; an orphan raises :class:`EOFError` at its next
    claim.
    """
    results = []
    while True:
        if parent is not None and os.getppid() != parent:
            raise EOFError("the pool's main process has ended")
        token = os.read(tokens, 2)
        if len(token) != 2:
            raise EOFError("the pool's token pipe was closed")
        chunk = int.from_bytes(token, "little")
        if chunk == _END:
            return results
        results += work(items[chunk::chunks])


def run(work, items, processes: int) -> list:
    """``work`` of every chunk of ``items``, computed by up to ``processes``
    processes and concatenated in an order that depends on who claimed
    what.

    ``work`` takes a list of items and returns a list of results.  With
    fewer than two processes, or when the token pipe cannot be made, it
    runs here on the whole list.  Otherwise this process writes the tokens
    of ``_CHUNKS_PER_PROCESS`` chunks per process, or of one chunk per item
    when there are fewer, then one end marker per process, into one token
    pipe, forks up to ``processes - 1`` workers, fewer if the pipe's
    ``PIPE_BUF`` cannot hold the tokens of ``_CHUNKS_PER_PROCESS`` chunks
    for all of them, and claims chunks with them until it reads an end
    marker.  If ``os.pipe`` or ``os.fork`` fails, the workers already
    started claim with this process.  Each worker pickles ``("ok",
    results)`` or ``("error", exception, traceback text)`` into its own
    result pipe; results that do not pickle are sent as the pickling
    error.  A worker's exception is raised here with the worker's
    traceback as its cause; a worker that ends without its results raises
    :class:`RuntimeError`.  Error messages name the workers glue workers
    and their results counts.  Every worker is killed and reaped and every
    pipe closed however the call ends.
    """
    if processes < 2:
        return work(items)
    try:
        tokens = os.pipe()
    except OSError:
        return work(items)
    workers: dict[int, object] = {}
    try:
        # The tokens, two bytes for each chunk and each end marker, must
        # fit in PIPE_BUF bytes to be written at once.
        processes = min(processes, os.fpathconf(tokens[1], "PC_PIPE_BUF")
                        // (2 * (_CHUNKS_PER_PROCESS + 1)))
        chunks = min(len(items), _CHUNKS_PER_PROCESS * processes)
        # At most PIPE_BUF bytes into an empty pipe: one write that never
        # blocks and that no reader sees in part.
        os.write(tokens[1], b"".join(
            i.to_bytes(2, "little")
            for i in [*range(chunks), *[_END] * processes]))
        main = os.getpid()
        for _ in range(processes - 1):
            try:
                result_read, result_write = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(result_read)
                os.close(result_write)
                break
            if pid == 0:
                _serve(items, chunks, tokens[0], result_write, work, main,
                       [tokens[1], result_read,
                        *(reader.fileno() for reader in workers.values())])
            os.close(result_write)
            workers[pid] = os.fdopen(result_read, "rb")
        out = _claimed(items, chunks, tokens[0], work)
        for pid, reader in list(workers.items()):
            try:
                result = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                reader.close()
                del workers[pid]
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"glue worker {pid} ended with status "
                                   f"{status} without its counts") from None
            if result[0] == "error":
                raise result[1] from RuntimeError(
                    f"in glue worker {pid}:\n{result[2]}")
            out += result[1]
        return out
    finally:
        for pid, reader in workers.items():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            reader.close()
        for fd in tokens:
            os.close(fd)


def _serve(items, chunks: int, tokens: int, results: int, work, main: int,
           inherited: list[int]):
    """Body of a worker process of :func:`run`; never returns.

    The worker first closes the ``inherited`` descriptors of the other pipe
    ends, so that it holds no write end of the token pipe and no other
    worker's result pipe, then claims chunks while ``main`` is its parent.
    Its results are pickled before anything is written, so results that
    do not pickle send the pickling error instead.  An exception that does
    not survive a pickle round trip is sent as a :class:`WorkerError`.
    """
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(results, "wb") as out:
            try:
                result = pickle.dumps(
                    ("ok", _claimed(items, chunks, tokens, work, main)),
                    pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                import traceback
                text = traceback.format_exc()
                sent = exc
                try:
                    pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
                except Exception:
                    sent = WorkerError(
                        f"{type(exc).__module__}.{type(exc).__qualname__}",
                        str(exc), text)
                result = pickle.dumps(("error", sent, text),
                                      pickle.HIGHEST_PROTOCOL)
            out.write(result)
        status = 0
    finally:
        os._exit(status)
