"""Forked worker processes that share a list of work items with this one.

A :class:`Pool` forks its workers once, from this process's memory, so the
work function and everything it reaches are inherited, not pickled.  For
each list of items, the workers and this process claim chunks of the list
from one shared pipe until none is left, apply the work function to each
chunk they claim, and the workers send their results back pickled.  The
glue walk runs its levels on one pool per walk, and the diagnostics sweep
its orders on one pool per sweep.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from functools import partial

# A list is cut into at least this many chunks per process, or one chunk
# per item when there are fewer; chunk i holds every chunks-th item from
# the i-th, and each process claims the next chunk whenever it finishes one.
# With 4, 8, 16 or 32 chunks per process, two-process glue levels of 71 to
# 362 parents took the same time within 10% on a 2-core x86-64 VM (medians
# of 21); with p processes, 16 keep each chunk, and so the wait for the last
# one claimed, at 1/(16 p) of a list.
_CHUNKS_PER_PROCESS = 16

# A longer list is cut into chunks of at most this many items, as far as one
# PIPE_BUF token write holds them.  On the same VM, the (4,4) glue level of
# 14,701 parents (about 0.4 ms each) in 32 chunks of about 460 parents left
# this process waiting 0.030-0.103 s after its own last chunk (19 walks),
# 0.006-0.062 s of it for the worker to finish (6 walks); in 918 chunks of
# 16 parents it waited 0.031-0.043 s, at most 0.004 s of it for the worker
# and the rest unpickling the worker's children.
_ITEMS_PER_CHUNK = 16

# Token of the pool's token pipe that ends a process's claims; chunk
# indices stay below it.
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


def _claimed(items, chunks: int, tokens: int, work) -> list:
    """``work`` of each chunk of ``items`` that this process claims from the
    ``tokens`` pipe, up to the first end marker, concatenated.

    Chunk ``i`` of ``chunks`` holds every ``chunks``-th item from the
    ``i``-th.  End of file raises :class:`EOFError`: an empty read is not
    chunk 0.
    """
    results = []
    while True:
        token = os.read(tokens, 2)
        if len(token) != 2:
            raise EOFError("the pool's token pipe was closed")
        chunk = int.from_bytes(token, "little")
        if chunk == _END:
            return results
        results += work(items[chunk::chunks])


def _chunk_count(items: int, processes: int, pipe_buf: int) -> int:
    """Chunks to cut a list of ``items`` into for ``processes`` processes.

    ``_CHUNKS_PER_PROCESS`` per process, or chunks of ``_ITEMS_PER_CHUNK``
    items when that gives more, as many as the token pipe's ``pipe_buf``
    holds beside one end marker per process, and never more than items.
    """
    return min(items,
               max(_CHUNKS_PER_PROCESS * processes, items // _ITEMS_PER_CHUNK),
               pipe_buf // 2 - processes)


class Pool:
    """Forked worker processes that apply ``work`` to lists of items with
    this one.

    ``work`` takes a list of items and returns a list of results.  The
    workers are forked once and then serve one list after another.  For
    each list, this process pickles ``(items, chunks, options)`` into every
    worker's item pipe and writes the chunk indices, then one end marker per
    process, into the token pipe that all of them read; each process claims
    chunks until it reads an end marker.  Each worker then pickles
    ``("ok", results)`` or ``("error", exception, traceback text)`` into
    its own result pipe.  A worker ends on end of file from either pipe it
    reads, so it does not outlive this process for long.  ``name`` and
    ``results`` name the workers and their results in error messages.
    """

    def __init__(self, work, processes: int, name: str, results: str):
        """Fork up to ``processes - 1`` workers, fewer if the token pipe's
        ``PIPE_BUF`` cannot hold the tokens of ``_CHUNKS_PER_PROCESS``
        chunks for all of them.  If ``os.pipe`` or ``os.fork`` fails, the
        pool keeps the workers already started, and this process claims
        what they leave."""
        self.work = work
        self.name = name
        self.results = results
        self.tokens: tuple[int, ...] = ()
        self.pipe_buf = 0
        self.workers: dict[int, tuple[int, object]] = {}
        try:
            try:
                self.tokens = os.pipe()
            except OSError:
                return
            # One list's tokens, two bytes for each chunk and each end
            # marker, must fit in PIPE_BUF bytes to be written at once.
            self.pipe_buf = os.fpathconf(self.tokens[1], "PC_PIPE_BUF")
            most = self.pipe_buf // (2 * (_CHUNKS_PER_PROCESS + 1))
            for _ in range(min(processes, most) - 1):
                fds: list[int] = []
                try:
                    fds += os.pipe()
                    fds += os.pipe()
                    pid = os.fork()
                except OSError:
                    for fd in fds:
                        os.close(fd)
                    break
                items, items_write, result_read, results_write = fds
                if pid == 0:
                    _serve(items, self.tokens[0], results_write, work,
                           [self.tokens[1], items_write, result_read,
                            *(end for fd, reader in self.workers.values()
                              for end in (fd, reader.fileno()))])
                os.close(items)
                os.close(results_write)
                self.workers[pid] = (items_write,
                                     os.fdopen(result_read, "rb"))
        except BaseException:
            self.close()
            raise

    def run(self, items, **options) -> list:
        """``work`` of every chunk of ``items``, computed by every process
        of the pool and concatenated in an order that depends on who
        claimed what.

        Keyword ``options`` go to every ``work`` call of this list.  The
        list is cut into :func:`_chunk_count` chunks.  A worker's
        exception is raised here with the worker's traceback as its cause;
        a worker that ends without its results raises
        :class:`RuntimeError`.
        """
        if not self.workers:
            return self.work(items, **options)
        processes = len(self.workers) + 1
        chunks = _chunk_count(len(items), processes, self.pipe_buf)
        with memoryview(pickle.dumps((items, chunks, options),
                                     pickle.HIGHEST_PROTOCOL)) as task:
            for pid, (fd, _) in list(self.workers.items()):
                sent = 0
                try:
                    while sent < len(task):
                        sent += os.write(fd, task[sent:])
                except BrokenPipeError:
                    raise self._lost(pid) from None
        # At most PIPE_BUF bytes into an empty pipe: one write that never
        # blocks and that no reader sees in part.
        os.write(self.tokens[1], b"".join(
            i.to_bytes(2, "little")
            for i in [*range(chunks), *[_END] * processes]))
        results = _claimed(items, chunks, self.tokens[0],
                           partial(self.work, **options))
        for pid, (_, reader) in list(self.workers.items()):
            try:
                result = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                raise self._lost(pid) from None
            if result[0] == "error":
                raise result[1] from RuntimeError(
                    f"in {self.name} worker {pid}:\n{result[2]}")
            results += result[1]
        return results

    def _lost(self, pid: int) -> RuntimeError:
        """Reap worker ``pid``, which closed its pipes by ending, and
        describe it."""
        fd, reader = self.workers.pop(pid)
        os.close(fd)
        reader.close()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return RuntimeError(f"{self.name} worker {pid} ended with status "
                            f"{status} without its {self.results}")

    def close(self) -> None:
        """Kill and reap every worker and close every pipe."""
        for pid, (fd, reader) in self.workers.items():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            os.close(fd)
            reader.close()
        self.workers.clear()
        for fd in self.tokens:
            os.close(fd)
        self.tokens = ()


def _serve(items: int, tokens: int, results: int, work,
           inherited: list[int]):
    """Body of a worker process of :class:`Pool`; never returns.

    The worker first closes the ``inherited`` descriptors of the pool's
    other pipe ends, so that it holds no write end of a pipe it reads and
    the pool's death is end of file there.  An exception that does not
    survive a pickle round trip is sent as a :class:`WorkerError`.
    """
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(items, "rb") as inbox, \
                os.fdopen(results, "wb") as out:
            while True:
                # The list's items and ``result`` go once the results are
                # sent, so nothing waits here for the next list.
                try:
                    batch, chunks, options = pickle.load(inbox)
                    result = "ok", _claimed(batch, chunks, tokens,
                                            partial(work, **options))
                except EOFError:
                    break
                except BaseException as exc:
                    import traceback
                    text = traceback.format_exc()
                    sent = exc
                    try:
                        pickle.loads(pickle.dumps(exc,
                                                  pickle.HIGHEST_PROTOCOL))
                    except Exception:
                        sent = WorkerError(
                            f"{type(exc).__module__}.{type(exc).__qualname__}",
                            str(exc), text)
                    result = "error", sent, text
                pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
                batch = result = None
        status = 0
    finally:
        os._exit(status)
