"""Per-contributor store replication: WAL frame shipping and replay.

The write-ahead log (:mod:`repro.storage.wal`) made a single store
crash-*recoverable*; this module makes a store crash-*survivable* by
shipping the exact framed bytes the WAL appends to one or more replica
stores over the ordinary :mod:`repro.net` transport:

* :class:`WalShipper` runs on the **primary**.  It tails the log through
  :attr:`WriteAheadLog.on_append` (plus a :meth:`~WalShipper.backfill`
  scan of the current on-disk generation, so frames appended before the
  shipper existed are not lost), buffers frames until every replica has
  acknowledged them, and POSTs batches to ``/api/replicate/append``, each
  batch's frames as one byte stream (:func:`encode_ship`);
* :class:`ReplicaApplier` runs on each **replica**.  Every received frame
  is verified with the same rigor the on-disk scanner applies — header
  CRC, payload CRC, chain binding to the previous frame, strict LSN
  continuity (a stream with no applied history must start at lsn 1) —
  and only then installed by :func:`repro.storage.records.apply`, the
  installer crash recovery uses, so replication cannot apply anything a
  crash recovery would have refused.

Checkpoints truncate the WAL, so once a primary has checkpointed its
frames no longer reach back to lsn 1.  A resync then leads with a
**snapshot bootstrap** (:func:`repro.storage.records.dump`): the
primary's full durable state as WAL-shaped ``(op, data)`` records,
installed the same way, after which the applier resumes frame continuity
at ``BaseLsn + 1``.  A resync that names a base but carries no bootstrap is
rejected — a joiner must never be marked caught-up with a silent hole in
its history.

Acknowledgement modes:

* ``"async"`` — frames ship opportunistically (after each mutating
  request and on broker heartbeats); a write is acknowledged to the
  client before replicas have it, so a failover can lose the tail;
* ``"semi-sync"`` — a mutating request is only acknowledged once at
  least ``min_acks`` replicas hold every frame it produced; otherwise
  the request fails with :class:`~repro.exceptions.ReplicationError`.
  Availability is traded for durability: committed-write loss across a
  failover is zero by construction (benchmark C12 asserts it).

Epoch fencing: every ship carries the primary's **store epoch**.  The
broker bumps the epoch when it promotes a replica, so a demoted primary
that never heard the news has its ships rejected with a 409
(:class:`~repro.exceptions.StaleEpochError`) — at which point the
shipper demotes its own service rather than forking history.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.exceptions import (
    ConflictError,
    CorruptRecordError,
    ReplicationError,
    ServiceError,
    StaleEpochError,
    StorageError,
    TransportError,
)
from repro.storage.records import apply, dump
from repro.storage.wal import (
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    _HEADER,
    decode_frame,
    decode_payload,
)

MODE_ASYNC = "async"
MODE_SEMI_SYNC = "semi-sync"
_MODES = (MODE_ASYNC, MODE_SEMI_SYNC)

#: Consecutive failed ships before a replica is declared *lagging*: it
#: stops pinning the primary's in-memory frame buffer and is converged by
#: a full resync (disk backfill + snapshot bootstrap) when it returns.
LAGGING_AFTER_FAILURES = 3


def read_wal_frames(path: str) -> list:
    """Extract ``(lsn, frame_bytes, chain_prev)`` for every intact frame.

    The raw-bytes sibling of :func:`repro.storage.wal.scan_wal`: frames
    are CRC-verified and chain-checked while scanning, and extraction
    stops at the first torn or suspect byte — a shipper must never ship
    bytes it cannot vouch for.
    """
    frames = []
    if not os.path.exists(path):
        return frames
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    chain_prev = 0
    while offset + HEADER_SIZE <= len(data):
        length = _HEADER.unpack_from(data, offset)[0]
        end = offset + HEADER_SIZE + length
        if length > MAX_FRAME_BYTES or end > len(data):
            break  # torn tail or implausible header: stop shipping here
        frame = data[offset:end]
        try:
            lsn, chain, _payload = decode_frame(frame, chain_prev=chain_prev)
        except CorruptRecordError:
            break
        frames.append((lsn, frame, chain_prev))
        chain_prev = chain
        offset = end
    return frames


def encode_ship(frames) -> dict:
    """The wire form of shipped WAL frames: one envelope, one byte stream.

    ``Stream`` is the exact bytes of every ``(lsn, frame_bytes,
    chain_prev)`` triple's frame, concatenated: the journal's own bytes,
    sent as ``bytes`` (:mod:`repro.net.wire` carries them beside the JSON;
    frames delimit themselves: the 20-byte header carries the length);
    ``Frames`` is one ``[lsn, chain_prev]`` per frame — a batch can span a
    checkpoint reset, where ``chain_prev`` is 0 mid-batch, so it cannot be
    derived from the previous header.  The only producer of these two
    ``/api/replicate/append`` members; :func:`decode_ship` is their only
    parser.
    """
    frames = list(frames)
    stream = b"".join(frame for _lsn, frame, _chain_prev in frames)
    return {
        "Frames": [[lsn, chain_prev] for lsn, _frame, chain_prev in frames],
        "Stream": stream,
    }


def decode_ship(body: dict) -> list:
    """Cut a shipped stream back into ``(lsn, frame_bytes, chain_prev)``.

    :class:`~repro.exceptions.CorruptRecordError`, before any frame is
    returned, unless the headers' lengths cut the stream into exactly the
    frames the envelope lists: one that ends inside a header or payload,
    or runs on past the last frame, is refused whole.  What each frame
    *holds* is :meth:`ReplicaApplier._apply_frame`'s to verify.
    """
    try:
        envelope = [(int(lsn), int(chain_prev)) for lsn, chain_prev in body["Frames"]]
        stream = body["Stream"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptRecordError(f"malformed ship: {exc!r}") from exc
    if not isinstance(stream, bytes):
        raise CorruptRecordError(f"malformed ship: Stream is {type(stream).__name__}, not bytes")
    frames, offset = [], 0
    for lsn, chain_prev in envelope:
        end = offset + HEADER_SIZE
        if end <= len(stream):
            end += _HEADER.unpack_from(stream, offset)[0]
        if end > len(stream):
            raise CorruptRecordError(f"shipped stream ends inside frame lsn {lsn}")
        frames.append((lsn, stream[offset:end], chain_prev))
        offset = end
    if offset != len(stream):
        raise CorruptRecordError(
            f"shipped stream: {len(frames)} frames consume {offset} of {len(stream)} bytes"
        )
    return frames


@dataclass
class ReplicaLink:
    """The primary's view of one replica: transport handle plus progress."""

    host: str
    client: object  # HttpClient bound to the primary's identity
    acked_lsn: int = 0
    #: next ship must tell the replica to reset continuity and replay
    #: idempotently (new link, or a post-promotion stream change).
    resync: bool = True
    alive: bool = True
    #: consecutive failed ships; at :data:`LAGGING_AFTER_FAILURES` the
    #: link flips to resync-on-return and stops pinning the frame buffer.
    fails: int = 0
    last_error: str = ""


class _BufferedFrame(NamedTuple):
    """One framed WAL record waiting for replica acknowledgement."""

    lsn: int
    frame: bytes
    chain_prev: int


class WalShipper:
    """Ships a primary's WAL frames to its replicas; tracks their progress.

    Created by :meth:`DataStoreService.enable_replication`; requires the
    service to be durable (the WAL *is* the replication stream).
    """

    def __init__(self, service, *, mode: str = MODE_ASYNC, min_acks: int = 1):
        if mode not in _MODES:
            raise StorageError(f"unknown replication mode {mode!r}; use {_MODES}")
        if service.durability is None or service.durability.wal is None:
            raise StorageError(
                f"store {service.host!r} is not durable; replication ships the WAL"
            )
        self.service = service
        self.mode = mode
        self.min_acks = max(1, int(min_acks))
        self.links: dict = {}
        self._buffer: list = []
        self.fenced = False  # a replica rejected our epoch: we were demoted
        #: LSN the current WAL generation starts *above* (the last
        #: checkpoint's LSN; 0 when the log has never been truncated).  A
        #: resync can be served from frames alone only when they reach
        #: back to ``_base_lsn + 1 == 1``; otherwise the ship leads with a
        #: snapshot bootstrap covering everything at or below the base.
        self._base_lsn = service.durability.checkpoint_lsn
        service.durability.wal.on_append.append(self._on_append)
        service.durability.wal.on_reset.append(self._on_reset)
        obs = service.network.obs
        self.obs = obs if obs is not None and obs.enabled else None
        if self.obs is not None:
            m = self.obs.metrics
            host = service.host
            self._c_ships = m.counter("replication_ships_total", store=host)
            self._c_frames = m.counter("replication_frames_shipped_total", store=host)
            self._c_failures = m.counter("replication_ship_failures_total", store=host)
            self._c_fenced = m.counter("replication_fenced_total", store=host)
            self._c_rejected = m.counter("replication_writes_rejected_total", store=host)
        else:
            self._c_ships = None
            self._c_frames = None
            self._c_failures = None
            self._c_fenced = None
            self._c_rejected = None

    # ------------------------------------------------------------------
    # WAL tailing
    # ------------------------------------------------------------------

    def _on_append(self, lsn: int, frame: bytes, chain_prev: int) -> None:
        self._buffer.append(_BufferedFrame(lsn, frame, chain_prev))

    def _on_reset(self) -> None:
        # A checkpoint truncated the log: the generation now starts above
        # the checkpoint LSN, so any later resync needs the snapshot
        # bootstrap — frames alone no longer reach back to lsn 1.
        self._base_lsn = self.service.durability.wal.last_lsn

    def _cover_generation(self) -> None:
        """Make the buffer span the whole current WAL generation.

        A resyncing link replays from the generation start; after trims on
        behalf of caught-up links (or a buffer cleared while every link
        was down) those frames exist only on disk, so re-seed them via
        :meth:`backfill` before building the resync batch.
        """
        wal = self.service.durability.wal
        if wal.last_lsn <= self._base_lsn:
            return  # generation is empty: nothing to cover
        if self._buffer and self._buffer[0].lsn <= self._base_lsn + 1:
            return  # already reaches the generation start
        self.backfill()

    def backfill(self) -> int:
        """Seed the buffer from the on-disk WAL (frames predating us).

        Also the post-promotion resync source: a freshly promoted primary
        backfills its whole current generation and ships it with
        ``Resync`` semantics so surviving replicas converge on *its*
        history, not the dead primary's.  Returns the frames seeded.
        """
        wal = self.service.durability.wal
        wal.commit()  # ship only bytes that are truly on disk
        have = {bf.lsn for bf in self._buffer}
        frames = [
            _BufferedFrame(lsn, frame, chain_prev)
            for lsn, frame, chain_prev in read_wal_frames(wal.path)
            if lsn not in have
        ]
        if frames:
            self._buffer = sorted(self._buffer + frames, key=lambda bf: bf.lsn)
        return len(frames)

    # ------------------------------------------------------------------
    # Replica management
    # ------------------------------------------------------------------

    def attach(self, host: str, client) -> ReplicaLink:
        """Register one replica; its first ship carries resync semantics."""
        link = ReplicaLink(host=host, client=client)
        self.links[host] = link
        if self.obs is not None:
            self.obs.metrics.gauge(
                "replication_lag_frames",
                callback=lambda link=link: self.lag_of(link.host),
                store=self.service.host,
                replica=host,
            )
        return link

    def detach(self, host: str) -> None:
        """Forget a replica (it was promoted away, or decommissioned)."""
        self.links.pop(host, None)

    def last_lsn(self) -> int:
        """LSN of the newest buffered frame (or the WAL tail when drained)."""
        if self._buffer:
            return self._buffer[-1].lsn
        wal = self.service.durability.wal if self.service.durability else None
        return wal.last_lsn if wal is not None else 0

    def lag_of(self, host: str) -> int:
        """Frames the named replica is behind the primary's WAL tail."""
        link = self.links.get(host)
        if link is None:
            return 0
        return max(0, self.last_lsn() - link.acked_lsn)

    def acked_count(self, lsn: Optional[int] = None) -> int:
        """Replicas that have acknowledged everything up to ``lsn``."""
        target = self.last_lsn() if lsn is None else lsn
        return sum(1 for link in self.links.values() if link.acked_lsn >= target)

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------

    def _ship_to(self, link: ReplicaLink) -> bool:
        """Ship pending frames to one replica inside a ``replication.ship`` span.

        The span rides the deployment's shared tracer stack, so a ship
        triggered by an upload's :meth:`after_write` barrier nests under
        that upload's server span — and :class:`~repro.net.client.HttpClient`
        injects the ``Traceparent`` header on the POST, making the
        replica's ``net.request``/``replication.apply`` spans children of
        the same trace.  One upload, one trace tree, primary → replica.
        """
        if not link.resync and (not self._buffer or self._buffer[-1].lsn <= link.acked_lsn):
            # Nothing to ship and nothing to replay: a heartbeat-driven
            # pump on an idle link.  Skip the span — tracing a no-op every
            # tick would charge the workload for telemetry about nothing.
            return True
        tracer = self.service.network.obs.tracer
        with tracer.start_span(
            "replication.ship", store=self.service.host, replica=link.host
        ) as span:
            return self._ship_frames(link, span)

    def _ship_frames(self, link: ReplicaLink, span) -> bool:
        if link.resync:
            # A resync replays the whole generation from its start (the
            # applier resets continuity), plus a snapshot bootstrap when
            # the generation itself starts above lsn 1 — without it a
            # post-checkpoint joiner would silently lack all checkpointed
            # state while staying promotion-eligible.  The bootstrap is
            # everything the checkpoint covers; every op is idempotent or
            # last-wins, so replaying the generation's frames *over* it
            # converges on the live state.
            self._cover_generation()
            pending = list(self._buffer)
        else:
            pending = [bf for bf in self._buffer if bf.lsn > link.acked_lsn]
        span.set_attributes(frames=len(pending), resync=link.resync)
        if not pending and not link.resync:
            span.set_attribute("outcome", "noop")
            return True
        body = {
            "Primary": self.service.host,
            "Epoch": self.service.epoch,
            "Resync": link.resync,
            **encode_ship(pending),
        }
        span.set_attribute("bytes", len(body["Stream"]))
        if link.resync:
            body["BaseLsn"] = self._base_lsn
            if self._base_lsn:
                body["Bootstrap"] = [
                    {"Op": op, "Data": data}
                    for op, data in dump(self.service)
                ]
        try:
            reply = link.client.post(f"https://{link.host}/api/replicate/append", body)
        except ConflictError as exc:
            # The replica follows a newer epoch: we are a fenced zombie.
            span.set_attribute("outcome", "fenced")
            link.last_error = str(exc)
            self.fenced = True
            if self._c_fenced is not None:
                self._c_fenced.inc()
            self.service.demote()
            return False
        except (TransportError, ServiceError) as exc:
            span.set_attribute("outcome", "unreachable")
            link.alive = False
            link.fails += 1
            link.last_error = str(exc)
            if link.fails >= LAGGING_AFTER_FAILURES and not link.resync:
                # Declared lagging: stop letting a dead replica pin the
                # in-memory frame buffer.  Its acked position is void —
                # when it returns, a full resync (disk backfill plus
                # bootstrap) converges it instead of the buffer.
                link.resync = True
                link.acked_lsn = 0
            if self._c_failures is not None:
                self._c_failures.inc()
            return False
        link.alive = True
        link.fails = 0
        link.last_error = ""
        applied = int(reply.get("AppliedLsn", link.acked_lsn))
        rejected = reply.get("Rejected")
        if rejected:
            # Continuity mismatch: adopt the replica's truth and re-ship
            # with resync semantics on the next pump.
            span.set_attribute("outcome", "rejected")
            link.acked_lsn = applied
            link.resync = True
            link.last_error = str(rejected)
            return False
        span.set_attribute("outcome", "ok")
        link.acked_lsn = max(link.acked_lsn, applied)
        link.resync = False
        if self._c_ships is not None:
            self._c_ships.inc()
            self._c_frames.inc(len(pending))
        return not pending or link.acked_lsn >= pending[-1].lsn

    def pump(self) -> int:
        """Ship pending frames to every replica; returns replicas caught up."""
        caught_up = 0
        for link in list(self.links.values()):
            if self._ship_to(link):
                caught_up += 1
            if self.fenced:
                break
        self._trim()
        return caught_up

    def _trim(self) -> None:
        """Drop buffered frames every link that still needs them has acked.

        The buffer is an optimization, not the source of truth: every
        frame is also in the on-disk WAL until the next checkpoint, and a
        resync re-seeds from there (:meth:`_cover_generation`).  So the
        only links that pin the buffer are live ones mid-stream; a link
        declared lagging (dead past :data:`LAGGING_AFTER_FAILURES`) is
        excluded — that is what keeps the buffer bounded while a replica
        is down for a long time.
        """
        if not self._buffer:
            return
        floors = []
        for link in self.links.values():
            if link.resync and not link.alive:
                continue  # lagging: converged by resync-on-return, not the buffer
            floors.append(0 if link.resync else link.acked_lsn)
        if not floors:
            # Nobody (reachable) needs these frames; the WAL still has them.
            self._buffer = []
            return
        floor = min(floors)
        if floor:
            self._buffer = [bf for bf in self._buffer if bf.lsn > floor]

    def after_write(self) -> None:
        """The service's per-request replication barrier.

        Called after every mutating API request.  ``async`` ships on a
        best-effort basis; ``semi-sync`` additionally *requires* at least
        ``min_acks`` replicas to hold every frame this request journaled,
        or the request is rejected (the client retries — upload dedupe
        and idempotent rule replace make those retries safe).
        """
        target = self.last_lsn()
        self.pump()
        if self.fenced:
            if self._c_rejected is not None:
                self._c_rejected.inc()
            raise ReplicationError(
                f"store {self.service.host!r} was fenced at epoch "
                f"{self.service.epoch}; writes rejected"
            )
        if self.mode != MODE_SEMI_SYNC:
            return
        if self.acked_count(target) < self.min_acks:
            if self._c_rejected is not None:
                self._c_rejected.inc()
            raise ReplicationError(
                f"semi-sync write needs {self.min_acks} replica ack(s) up to "
                f"lsn {target}; reachable replicas are behind or down"
            )

    def status(self) -> dict:
        """Shipping progress per replica, for the CLI and status endpoint."""
        return {
            "Mode": self.mode,
            "MinAcks": self.min_acks,
            "LastLsn": self.last_lsn(),
            "BaseLsn": self._base_lsn,
            "Fenced": self.fenced,
            "Replicas": {
                host: {
                    "AckedLsn": link.acked_lsn,
                    "Lag": self.lag_of(host),
                    "Alive": link.alive,
                    "Resync": link.resync,
                    "Fails": link.fails,
                    "LastError": link.last_error,
                }
                for host, link in sorted(self.links.items())
            },
        }


class ReplicaApplier:
    """Verifies and applies shipped WAL frames on a replica store.

    Frames install through :func:`repro.storage.records.apply` — the
    code path crash recovery trusts — which, when the replica is itself
    durable, re-journals them into its own WAL so a replica crash
    recovers to the replicated state.
    """

    def __init__(self, service):
        self.service = service
        self.primary: Optional[str] = None
        self.applied_lsn = 0
        self.chain = 0
        self.frames_applied = 0
        self.frames_skipped = 0
        self.bootstrap_applied = 0
        obs = service.network.obs
        self.obs = obs if obs is not None and obs.enabled else None
        if self.obs is not None:
            m = self.obs.metrics
            host = service.host
            self._c_applied = m.counter("replication_frames_applied_total", store=host)
            self._c_stale = m.counter("replication_stale_epoch_total", store=host)
            m.gauge(
                "replication_applied_lsn",
                callback=lambda: self.applied_lsn,
                store=host,
            )
        else:
            self._c_applied = None
            self._c_stale = None

    def apply_batch(self, body: dict) -> dict:
        """Apply one shipped batch; returns the acknowledgement body.

        Epoch fencing happens first: a batch from an older epoch raises
        :class:`~repro.exceptions.StaleEpochError` (409) so the demoted
        sender learns it was fenced.  Continuity mismatches are answered
        with ``Rejected`` + the applied LSN instead of an error, so the
        shipper can resynchronize without guessing.

        Runs inside a ``replication.apply`` span.  The serving
        ``net.request`` span already adopted the shipper's injected
        ``Traceparent``, so this span lands in the *primary's* trace tree:
        the upload that journaled these frames owns the whole path.
        """
        tracer = self.service.network.obs.tracer
        with tracer.start_span("replication.apply", store=self.service.host) as span:
            reply = self._apply_batch(body, span)
            span.set_attributes(
                applied_lsn=self.applied_lsn,
                outcome="rejected" if reply.get("Rejected") else "ok",
            )
            return reply

    def _apply_batch(self, body: dict, span) -> dict:
        service = self.service
        epoch = int(body.get("Epoch", 0))
        if epoch < service.epoch:
            if self._c_stale is not None:
                self._c_stale.inc()
            raise StaleEpochError(
                f"ship from epoch {epoch} rejected: {service.host!r} follows "
                f"epoch {service.epoch}"
            )
        frames = decode_ship(body)  # refused whole, before anything below moves
        span.set_attribute("frames", len(frames))
        service.epoch = epoch
        primary = str(body.get("Primary", "")) or None
        if body.get("Resync"):
            # A (re)joining stream replays its whole generation; the ops
            # are idempotent, so starting over is safe.
            self.applied_lsn = 0
            self.chain = 0
            self.primary = primary or self.primary
            # When the primary has checkpointed, its generation starts
            # above lsn 1 and frames alone cannot converge us: the batch
            # must lead with a snapshot bootstrap covering everything at
            # or below BaseLsn.  A base without a bootstrap is refused —
            # accepting it would leave a silent hole below the first
            # frame while this replica stays promotion-eligible.
            base = int(body.get("BaseLsn", 0))
            if base:
                bootstrap = body.get("Bootstrap")
                if bootstrap is None:
                    return {
                        "AppliedLsn": 0,
                        "Rejected": (
                            f"resync from base lsn {base} carries no "
                            "state bootstrap"
                        ),
                    }
                for record in bootstrap:
                    apply(
                        service,
                        str(record.get("Op", "")),
                        record.get("Data", {}),
                        journal=True,
                    )
                    self.bootstrap_applied += 1
                self.applied_lsn = base
        elif primary and self.primary is None:
            self.primary = primary
        for lsn, frame, chain_prev in frames:
            if not self._apply_frame(lsn, frame, chain_prev):
                return {
                    "AppliedLsn": self.applied_lsn,
                    "Rejected": f"continuity break at lsn {lsn}",
                }
        return {"AppliedLsn": self.applied_lsn}

    def _apply_frame(self, lsn: int, frame: bytes, chain_prev: int) -> bool:
        """Verify + apply one frame; False on a continuity rejection."""
        if lsn <= self.applied_lsn:
            self.frames_skipped += 1  # idempotent re-ship
            return True
        if self.applied_lsn and lsn != self.applied_lsn + 1:
            return False  # gap: frames were lost in shipping
        if not self.applied_lsn and lsn != 1:
            # A stream with no history here must start at its beginning
            # (lsn 1, or a bootstrap that raised applied_lsn above zero).
            # Silently adopting a mid-stream start would leave an
            # undetectable hole below ``lsn`` on a promotion candidate.
            return False
        # ChainPrev must extend our chain — or be zero, which marks the
        # primary's checkpoint reset (a new log generation).
        if self.applied_lsn and chain_prev not in (self.chain, 0):
            return False
        frame_lsn, chain, payload = decode_frame(frame, chain_prev=chain_prev)
        if frame_lsn != lsn:
            raise CorruptRecordError(
                f"shipped frame lsn mismatch: envelope {lsn}, frame {frame_lsn}"
            )
        op, data = decode_payload(payload)
        # The payload is CRC-, chain- and LSN-verified: journal those bytes.
        apply(self.service, op, data, journal=True, payload=payload)
        self.applied_lsn = lsn
        self.chain = chain
        self.frames_applied += 1
        if self._c_applied is not None:
            self._c_applied.inc()
        return True

    def status(self) -> dict:
        """Apply progress, for ``/api/replicate/status`` and the CLI."""
        return {
            "Primary": self.primary,
            "Epoch": self.service.epoch,
            "AppliedLsn": self.applied_lsn,
            "Chain": self.chain,
            "FramesApplied": self.frames_applied,
            "FramesSkipped": self.frames_skipped,
            "BootstrapApplied": self.bootstrap_applied,
            "RuleVersions": {
                name: self.service.rules.version_of(name)
                for name in self.service.rules.contributors()
            },
        }
