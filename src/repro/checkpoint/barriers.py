"""Injectable crash barriers for the checkpoint commit protocol.

A *barrier* is a named no-op on the checkpoint hot path.  In production
nothing is installed and :func:`barrier` costs one global read.  The
crash-injection harness (``tests/crashkit.py``) installs a hook that
SIGKILLs the process at the *n*-th firing of a chosen barrier, which is
how the test suite proves every commit-protocol window -- mid-day,
mid-segment-flush, mid-manifest-write, and the post-commit day boundary
-- resumes byte-identical.

Barrier placement is part of the commit protocol's contract: each name
marks a moment where a kill leaves a distinct on-disk state.

==========================  =============================================
name                        the world a kill leaves behind
==========================  =============================================
``mid-day``                 per streamed row: the segment exists only
                            in memory, nothing on disk changed
``segment-flush``           the segment tmp file is written but not yet
                            fsync'd/renamed: a ``*.tmp`` orphan
``manifest-mid-write``      the segment + state files are durable but the
                            manifest record is torn mid-line
``segment-committed``       the manifest record is fsync'd: the clean
                            day-boundary kill
``worker-respawn``          the exec supervisor is mid-recovery: a shard
                            worker died and its replacement is about to
                            spawn; nothing of the failed attempt was
                            folded, the day is uncommitted
==========================  =============================================

``worker-respawn`` is fired by :class:`~repro.exec.process.
ProcessExecutor`, not the commit protocol -- it exists so the chaos
harness can prove a coordinator SIGKILL *during* worker recovery still
resumes byte-identically (worker death composes with checkpoint/resume).
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = [
    "BARRIER_NAMES",
    "MANIFEST_MID_WRITE",
    "MID_DAY",
    "SEGMENT_COMMITTED",
    "SEGMENT_FLUSH",
    "WORKER_RESPAWN",
    "barrier",
    "install_barrier_hook",
]

MID_DAY = "mid-day"
SEGMENT_FLUSH = "segment-flush"
MANIFEST_MID_WRITE = "manifest-mid-write"
SEGMENT_COMMITTED = "segment-committed"
WORKER_RESPAWN = "worker-respawn"

#: Every barrier the commit protocol fires, in protocol order, plus the
#: exec supervisor's recovery window.
BARRIER_NAMES = (
    MID_DAY, SEGMENT_FLUSH, MANIFEST_MID_WRITE, SEGMENT_COMMITTED,
    WORKER_RESPAWN,
)

_hook: Optional[Callable[[str], None]] = None


def install_barrier_hook(
    hook: Optional[Callable[[str], None]],
) -> Optional[Callable[[str], None]]:
    """Install ``hook`` to observe every barrier; returns the previous one.

    Pass ``None`` to uninstall.  The hook receives the barrier name; a
    crash-injection hook never returns from its chosen firing (it kills
    the process), ordinary observers just return.
    """
    global _hook
    previous = _hook
    _hook = hook
    return previous


def barrier(name: str) -> None:
    """Fire the named barrier (a no-op unless a hook is installed)."""
    if _hook is not None:
        _hook(name)
