"""Signature checks on forked processes: the plumbing both users share.

Replay's pre-pass (``chain.precheck_signatures``) and the sim's admission
helper (``gateway.AdmissionHelper``) each fork children that check
signatures and write one flag byte per check to a pipe.  A check is a pure
function of the key, the signed bytes and the signature, so a child
touches no state its parent keeps, and its parent trusts only a true flag
it read in full.

Forking is worth it only where a check costs far more than a fork, and
safe only from a process that runs one thread: a child of a threaded
process can inherit a lock some other thread held.
"""

from __future__ import annotations

import os
import signal
import threading
from collections.abc import Callable
from typing import NamedTuple


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def may_fork(scheme) -> bool:
    """Whether checking ``scheme``'s signatures on a forked child can pay and
    is safe: the scheme's check is costly, ``os.fork`` exists and this
    process runs one thread."""
    return scheme.costly_verify and hasattr(os, "fork") and threading.active_count() == 1


class Child(NamedTuple):
    pid: int
    replies: int  # the read end of the pipe the child writes
    requests: int | None  # the write end of the pipe the child reads, if it reads one


def fork_child(work: Callable[[int, int | None], object], requests: bool = False) -> Child | None:
    """A child that runs ``work(replies, requests)`` on its ends of one pipe,
    or of two with ``requests``, then exits; or None when no pipe or
    process can be made (an ``OSError``)."""
    pipes: list[tuple[int, int]] = []
    try:
        for _ in range(1 + requests):
            pipes.append(os.pipe())
        pid = os.fork()
    except OSError:
        for fd in (fd for pipe in pipes for fd in pipe):
            os.close(fd)
        return None
    (reply_read, reply_write), *asked = pipes
    if pid == 0:
        # the child: whatever happens, it leaves here, and it never runs the
        # parent's clean-up or flushes the parent's buffered output
        try:
            os.close(reply_read)
            if asked:
                os.close(asked[0][1])
            work(reply_write, asked[0][0] if asked else None)
        finally:
            os._exit(0)
    os.close(reply_write)
    if asked:
        os.close(asked[0][0])
    return Child(pid, reply_read, asked[0][1] if asked else None)


def reap(children: list[Child]) -> None:
    """Close each child's pipes, stop it with SIGKILL and wait for it.

    A child whose pipe was read to its end is exiting anyway, and one that
    was not may still be checking for a parent that is leaving early; until
    it is waited for, its pid cannot be reused, so the kill reaches no
    other process.
    """
    for child in children:
        os.close(child.replies)
        if child.requests is not None:
            os.close(child.requests)
        try:
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
        except OSError:  # already reaped, as when SIGCHLD is ignored
            pass


def write_all(fd: int, data: bytes) -> None:
    """Write all of ``data``; raises ``OSError`` as ``os.write`` does."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def read_to_end(fd: int) -> bytes:
    """Everything written to a pipe until its writer closed it, or b"" when the read fails."""
    chunks = []
    try:
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError:
        return b""
    return b"".join(chunks)


def read_exactly(fd: int, size: int) -> bytes:
    """``size`` bytes from a pipe, or fewer when its writer closed it or the read failed."""
    chunks = []
    try:
        while size:
            chunk = os.read(fd, size)
            if not chunk:
                break
            chunks.append(chunk)
            size -= len(chunk)
    except OSError:
        pass
    return b"".join(chunks)
