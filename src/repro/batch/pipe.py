"""The pipe between a parent process and a forked worker.

The batch runner (:mod:`repro.batch.runner`) and the async daemon
(:mod:`repro.service.async_daemon`) both evaluate in worker processes
forked with one socketpair each.  This module holds what the two share:
the message framing, the worker's detach from what ``fork`` copied, the
spawn itself, and the parent's non-blocking send and receive.  Each
keeps its own scheduler (a blocking ``selectors`` loop in batch,
event-loop callbacks in the daemon).

It imports neither ``asyncio`` nor :mod:`repro.service`: batch workers
fork from a process that never needs either, and importing them would
cost every batch run its start-up time.

A message is a pickled tuple behind a 4-byte big-endian length.  Both
ends are this program, so unpickling never sees foreign bytes.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import signal
import socket
import stat
import sys
from typing import Callable, List, Optional, Tuple

#: Messages one worker's pipe holds at once.  Two keep the worker busy
#: while its last answer travels back; everything else waits in the
#: parent, where its scheduler can still reorder, retry or cancel it.
PIPE_DEPTH = 2


def frame(message: tuple) -> bytes:
    """One message as bytes on the wire."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return len(payload).to_bytes(4, "big") + payload


def read_message(reader) -> Optional[tuple]:
    """The next message from a blocking reader; ``None`` at EOF."""
    header = reader.read(4)
    if len(header) < 4:
        return None
    payload = reader.read(int.from_bytes(header, "big"))
    return pickle.loads(payload)


def receive(channel: socket.socket, inbox: bytearray) -> Optional[List[tuple]]:
    """Read what a non-blocking pipe end holds into ``inbox`` and return
    the messages it completes (possibly none); ``None`` at EOF, when the
    worker at the other end is gone."""
    try:
        data = channel.recv(1 << 18)
    except (BlockingIOError, InterruptedError):
        return []
    except OSError:
        data = b""
    if not data:
        return None
    inbox += data
    messages = []
    offset = 0
    while len(inbox) - offset >= 4:
        end = offset + 4 + int.from_bytes(inbox[offset:offset + 4], "big")
        if end > len(inbox):
            break
        messages.append(pickle.loads(inbox[offset + 4:end]))
        offset = end
    del inbox[:offset]
    return messages


def send_available(channel: socket.socket, data) -> int:
    """Send what a non-blocking pipe end takes now; returns the bytes
    taken.  A gone worker takes everything: its EOF reports the loss."""
    try:
        return channel.send(data)
    except (BlockingIOError, InterruptedError):
        return 0
    except OSError:
        return len(data)


def spawn_worker(target: Callable[[socket.socket, tuple], None],
                 config: tuple, name: str
                 ) -> Tuple[multiprocessing.Process, socket.socket]:
    """Fork ``target(channel, config)`` in a worker process.

    Returns the process and the parent's non-blocking end of the
    worker's socketpair.  Workers are ``multiprocessing`` fork-context
    processes, so they inherit the loaded library, run the after-fork
    hooks registered with :mod:`multiprocessing.util`, and exit through
    its finalizers when ``target`` returns.
    """
    parent_end, child_end = socket.socketpair()
    process = multiprocessing.get_context("fork").Process(
        target=target, args=(child_end, config), name=name, daemon=True)
    try:
        process.start()
    finally:
        child_end.close()
    parent_end.setblocking(False)
    return process, parent_end


def detach_from_parent(channel: socket.socket) -> None:
    """Undo, in a freshly forked worker, what ``fork`` copied from the
    parent.

    The parent's signal handlers are reset (a daemon's SIGTERM drains
    the *parent*; SIGINT belongs to the parent, which stops its workers
    itself).  Every inherited socket but this worker's own pipe is
    closed: sibling workers' pipe ends (else no worker would see EOF
    when the parent dies), and, in a daemon worker forked to replace a
    dead one, the listening and client sockets (else a closed
    connection or a released port would stay open in here).
    ``gc.freeze`` first: the parent's objects are then never collected
    in this process, so none of them closes an fd number this process
    has since reused.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.set_wakeup_fd(-1)
    gc.freeze()
    # A parent's stdout buffer may hold a line another thread was
    # writing at the fork; this copy must never flush it.
    sys.stdout = open(os.devnull, "w", encoding="utf-8")
    keep = channel.fileno()
    directory = "/proc/self/fd" if os.path.isdir("/proc/self/fd") \
        else "/dev/fd"
    for name in os.listdir(directory):
        fd = int(name)
        if fd <= 2 or fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # the listing's own descriptor, already gone
            pass
