"""RunCheckpoint: day-segment spill, verify, and resume for one run.

One :class:`RunCheckpoint` owns one checkpoint directory::

    manifest.jsonl      the fsync'd commit log (header + one line/segment)
    seg-00000.jsonl     day-segment 0, columnar dataset layout (repro.io)
    state-00000.json    run state captured *after* segment 0
    ...

Commit protocol, per completed day-segment (each step durable before the
next starts):

1. the segment's dataset is written to ``seg-K.jsonl.tmp``, fsync'd, and
   renamed into place;
2. the post-segment run state (:mod:`repro.checkpoint.state`) is written
   the same way;
3. one manifest line recording both files' SHA-256 digests is appended
   and fsync'd -- the atomic commit point.

A kill before step 3 leaves orphan files the next resume overwrites; a
kill *during* step 3 leaves a torn manifest line the loader truncates;
after step 3 the segment is permanent.  Superseded state files (only the
latest is ever needed) are pruned after each commit.

Resume verifies the manifest fingerprint against the new run's world and
config, replays committed segments into the live dataset one at a time
through ``append_segment`` (peak memory: spine + one segment), and hands
the last state snapshot to :func:`repro.checkpoint.state.restore_run_state`.
Any missing or digest-mismatched file fails loudly with a named
:class:`~repro.checkpoint.manifest.CheckpointError` subclass.

:func:`run_day_segments` is the one day-by-day schedule campaigns and
crawls run on, with or without a checkpoint directory.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.checkpoint.barriers import (
    MID_DAY,
    SEGMENT_COMMITTED,
    SEGMENT_FLUSH,
    barrier,
)
from repro.checkpoint.manifest import (
    CheckpointError,
    CheckpointMismatchError,
    Manifest,
    SegmentDigestError,
    SegmentMissingError,
    atomic_write_bytes,
    file_sha256,
    promote_tmp,
)
from repro.checkpoint.state import decode_state, encode_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crawler.records import CrawlDataset
    from repro.crowd.dataset import CrowdDataset

__all__ = ["RunCheckpoint", "run_day_segments", "run_fingerprint"]

#: Run kinds a checkpoint directory can hold, and the repro.io dataset
#: kind each one's segments are saved as.
_KINDS = {"campaign": "crowd", "crawl": "crawl"}


def run_fingerprint(kind: str, world_config, run_config, **extra) -> dict:
    """The identity of a run: what must match for a resume to be valid.

    World and run configs are frozen dataclasses of primitives, so their
    ``asdict`` forms compare structurally.  Executor and memo settings
    are deliberately *excluded* -- both are byte-neutral (the
    determinism contract), so a run may resume under a different worker
    count or memo toggle.
    """
    fingerprint = {
        "kind": kind,
        "world": dataclasses.asdict(world_config),
        "run": dataclasses.asdict(run_config),
    }
    fingerprint.update(extra)
    return fingerprint


class RunCheckpoint:
    """Checkpoint directory handle for one campaign or crawl run."""

    def __init__(self, directory: Path, manifest: Manifest) -> None:
        if manifest.kind not in _KINDS:
            raise CheckpointError(
                f"unknown checkpoint kind {manifest.kind!r} "
                f"(expected one of {sorted(_KINDS)})"
            )
        self.directory = directory
        self.manifest = manifest

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        *,
        kind: str,
        fingerprint: dict,
        resume: bool = False,
    ) -> "RunCheckpoint":
        """Open (resuming) or start (fresh) a checkpoint directory.

        ``resume=True`` with no manifest present starts fresh -- callers
        need not distinguish first runs from restarts.  ``resume=False``
        with a manifest present refuses loudly: overwriting a checkpoint
        silently would destroy exactly the data checkpointing protects.
        """
        if kind not in _KINDS:
            raise CheckpointError(f"unknown checkpoint kind {kind!r}")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / Manifest.FILENAME
        if path.exists():
            if not resume:
                raise CheckpointError(
                    f"{directory} already holds a checkpoint; pass "
                    f"resume=True to continue it (or point at a fresh "
                    f"directory)"
                )
            manifest = Manifest.load(path, repair=True)
            manifest.check_run(kind=kind, fingerprint=fingerprint)
        else:
            manifest = Manifest.create(
                path, kind=kind, fingerprint=fingerprint
            )
        return cls(directory, manifest)

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.manifest.kind

    @property
    def committed(self) -> list[dict]:
        """The committed segment records, in seq order."""
        return list(self.manifest.records)

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    def commit_segment(self, *, day: int, dataset, state: dict) -> dict:
        """Durably commit one completed day-segment (see module doc)."""
        from repro.io import save_crawl_dataset, save_crowd_dataset

        seq = len(self.manifest.records)
        seg_name = f"seg-{seq:05d}.jsonl"
        seg_path = self.directory / seg_name
        tmp = seg_path.with_name(seg_name + ".tmp")
        if self.kind == "campaign":
            save_crowd_dataset(dataset, tmp, columnar=True)
        else:
            save_crawl_dataset(dataset, tmp, columnar=True)
        barrier(SEGMENT_FLUSH)
        promote_tmp(tmp, seg_path)

        state_name = f"state-{seq:05d}.json"
        state_path = self.directory / state_name
        blob = json.dumps(
            encode_state(state), separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        atomic_write_bytes(state_path, blob)

        record = {
            "seq": seq,
            "day": int(day),
            "file": seg_name,
            "sha256": file_sha256(seg_path),
            "rows": len(dataset),
            "state_file": state_name,
            "state_sha256": file_sha256(state_path),
        }
        self.manifest.append_segment(record)
        barrier(SEGMENT_COMMITTED)
        self._prune_stale_state()
        return record

    def _prune_stale_state(self) -> None:
        """Drop state files superseded by a newer commit (only the last
        segment's snapshot is ever read again)."""
        for record in self.manifest.records[:-1]:
            stale = self.directory / record["state_file"]
            try:
                stale.unlink()
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------
    # Resume path
    # ------------------------------------------------------------------
    def _verified_path(self, filename: str, sha256: str) -> Path:
        path = self.directory / filename
        if not path.exists():
            raise SegmentMissingError(
                f"{path}: manifest-committed file is missing"
            )
        actual = file_sha256(path)
        if actual != sha256:
            raise SegmentDigestError(
                f"{path}: content digest {actual} != committed {sha256}"
            )
        return path

    def load_segment(
        self, record: dict
    ) -> "Union[CrawlDataset, CrowdDataset]":
        """Load one committed segment, verifying its digest first."""
        from repro.io import load_crawl_dataset, load_crowd_dataset

        path = self._verified_path(record["file"], record["sha256"])
        if self.kind == "campaign":
            return load_crowd_dataset(path)
        return load_crawl_dataset(path)

    def fold_into(self, dataset) -> int:
        """Replay every committed segment into ``dataset``, one at a time.

        Segments are loaded, folded through ``append_segment``, and
        released before the next loads -- peak memory stays at (spine +
        one segment) no matter how long the committed prefix is.
        Returns the number of segments folded.
        """
        for record in self.manifest.records:
            segment = self.load_segment(record)
            dataset.append_segment(segment)
        return len(self.manifest.records)

    def load_last_state(self) -> Optional[dict]:
        """The run state captured after the last committed segment."""
        if not self.manifest.records:
            return None
        record = self.manifest.records[-1]
        path = self._verified_path(
            record["state_file"], record["state_sha256"]
        )
        return decode_state(json.loads(path.read_text(encoding="utf-8")))


def run_day_segments(
    days: Sequence[int],
    run_day: Callable[[int, Callable[[object], None]], None],
    *,
    kind: str,
    fingerprint: dict,
    capture_state: Callable[[], dict],
    restore_state: Callable[[dict], None],
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> "Union[CrawlDataset, CrowdDataset]":
    """Run a campaign or crawl day by day; return its dataset.

    ``run_day(day, sink)`` runs one day of ``days`` and passes each of
    its dataset rows to ``sink`` in order.  The rows land in a staging
    dataset that is folded into the result through ``append_segment``
    once the day is done.

    With ``checkpoint_dir`` each finished day is also committed to disk
    together with ``capture_state()``.  ``resume=True`` then checks that
    the committed days are a prefix of ``days``, folds them back in,
    hands the last state to ``restore_state`` and runs only the rest.
    Without a directory nothing reaches disk and nothing else changes:
    the schedule, and so the bytes, are the same either way.
    """
    if kind == "campaign":
        from repro.crowd.dataset import CrowdDataset as new_dataset
    else:
        from repro.crawler.records import CrawlDataset as new_dataset
    dataset = new_dataset()
    checkpoint = None
    if checkpoint_dir is not None:
        checkpoint = RunCheckpoint.open(
            checkpoint_dir, kind=kind, fingerprint=fingerprint, resume=resume
        )
        committed = checkpoint.committed
        if len(committed) > len(days):
            raise CheckpointMismatchError(
                f"checkpoint holds {len(committed)} segments, {kind} only "
                f"has {len(days)} days"
            )
        for record, day in zip(committed, days):
            if record["day"] != day:
                raise CheckpointMismatchError(
                    f"checkpoint segment {record['seq']} covers day "
                    f"{record['day']}, {kind} expects day {day}"
                )
        checkpoint.fold_into(dataset)
        state = checkpoint.load_last_state()
        if state is not None:
            restore_state(state)
        days = days[len(committed):]
    for day in days:
        staging = new_dataset()

        def sink(row) -> None:
            barrier(MID_DAY)
            staging.add(row)

        run_day(day, sink)
        if checkpoint is not None:
            checkpoint.commit_segment(
                day=day, dataset=staging, state=capture_state()
            )
        dataset.append_segment(staging)
    return dataset
