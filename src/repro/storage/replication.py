"""Per-contributor store replication: WAL frame shipping and replay.

The write-ahead log (:mod:`repro.storage.wal`) made a single store
crash-*recoverable*; this module makes a store crash-*survivable* by
shipping the exact framed bytes the WAL appends to one or more replica
stores over the ordinary :mod:`repro.net` transport:

* :class:`WalShipper` runs on the **primary**.  It tails the log through
  :attr:`WriteAheadLog.on_append`, buffers frames until every streaming
  replica has acknowledged them, and POSTs batches to
  ``/api/replicate/append``, each batch's frames as one byte stream
  (:func:`encode_ship`);
* :class:`ReplicaApplier` runs on each **replica**.  Every received frame
  is verified with the same rigor the on-disk scanner applies — header
  CRC, payload CRC, chain binding to the previous frame, strict LSN
  continuity — and only then installed by
  :func:`repro.storage.records.apply`, the installer crash recovery uses,
  so replication cannot apply anything a crash recovery would have
  refused.  It journals each frame at its shipped LSN, its position.

A link starts, and restarts after a rejection or a lag, with a
**resync**, which has one form: the primary's records
(:func:`repro.storage.records.dump`) taken at its WAL's last LSN, sent
with that LSN (``BaseLsn``) and the chain value there (``BaseChain``).
The replica *becomes* those records (:func:`repro.storage.records.
replace`: what they lack is dropped, the audit trail aside) and
checkpoints at ``BaseLsn`` under the ship's epoch; frames above the base
then stream as usual, the first one chained from ``BaseChain``.  An
applier that has installed no resync since it started, or whose store
has since journaled a record of its own, refuses every other batch and
acknowledges nothing, so a replica is never caught up with a hole in its
history or a record its primary does not hold.

Acknowledgement: a mutating request is acknowledged only once a replica
holds every frame it produced; otherwise the request fails with
:class:`~repro.exceptions.ReplicationError` (503, retryable).  One ack
suffices because the broker promotes only when it can see every replica
and then picks the most caught-up (:mod:`repro.broker.failover`), so the
replica that acked is always among those it chooses from.  Availability
is traded for durability: committed-write loss across a failover is zero
by construction (benchmark C12 asserts it).

Epoch fencing: every ship carries the primary's **store epoch**.  The
broker bumps the epoch when it promotes a replica, so a demoted primary
that never heard the news has its ships rejected with a 409
(:class:`~repro.exceptions.StaleEpochError`) — at which point the
shipper demotes its own service rather than forking history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.exceptions import (
    ConflictError,
    CorruptRecordError,
    ReplicationError,
    ServiceError,
    StaleEpochError,
    StorageError,
    TransportError,
)
from repro.storage.records import KNOWN_OPS, apply, dump, replace
from repro.storage.wal import HEADER_SIZE, _HEADER, decode_frame, decode_payload

#: Consecutive failed ships before a replica is declared *lagging*: it
#: stops pinning the primary's in-memory frame buffer and is converged by
#: a resync when it returns.
LAGGING_AFTER_FAILURES = 3


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
    #: next ship is a resync: the primary's records, which the replica
    #: becomes (new link, a rejected batch, or a lagging replica).
    resync: bool = True
    alive: bool = True
    #: consecutive failed ships; at :data:`LAGGING_AFTER_FAILURES` the
    #: link flips to resync-on-return and stops pinning the frame buffer.
    fails: int = 0


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

    def __init__(self, service):
        if service.durability is None or service.durability.wal is None:
            raise StorageError(
                f"store {service.host!r} is not durable; replication ships the WAL"
            )
        self.service = service
        self.links: dict = {}
        self._buffer: list = []
        service.durability.wal.on_append.append(self._on_append)
        self.obs = service.network.obs
        m = self.obs.metrics
        host = service.host
        self._c_ships = m.counter("replication_ships_total", store=host)
        self._c_frames = m.counter("replication_frames_shipped_total", store=host)
        self._c_failures = m.counter("replication_ship_failures_total", store=host)
        self._c_fenced = m.counter("replication_fenced_total", store=host)
        self._c_rejected = m.counter("replication_writes_rejected_total", store=host)

    # ------------------------------------------------------------------
    # WAL tailing
    # ------------------------------------------------------------------

    def _on_append(self, lsn: int, frame: bytes, chain_prev: int) -> None:
        self._buffer.append(_BufferedFrame(lsn, frame, chain_prev))

    # ------------------------------------------------------------------
    # Replica management
    # ------------------------------------------------------------------

    def attach(self, host: str, client) -> ReplicaLink:
        """(Re-)link one replica, dropping any old link: its first ship is a resync."""
        link = ReplicaLink(host=host, client=client)
        self.links[host] = link
        self.obs.metrics.gauge(
            "replication_lag_frames",
            callback=lambda: self.lag_of(host),
            store=self.service.host,
            replica=host,
        )
        return link

    def last_lsn(self) -> int:
        """The WAL's last LSN (0 once it is closed): what a replica must hold."""
        wal = self.service.durability.wal
        return wal.last_lsn if wal is not None else 0

    def acked_lsn(self) -> int:
        """The highest LSN a replica holds."""
        return max((link.acked_lsn for link in self.links.values()), default=0)

    def lag_of(self, host: str) -> int:
        """Frames the named replica is behind the primary's WAL tail."""
        link = self.links.get(host)
        if link is None:
            return 0
        return max(0, self.last_lsn() - link.acked_lsn)

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
        body = {
            "Epoch": self.service.epoch,
            "Resync": link.resync,
        }
        if link.resync:
            # The one resync form: every record this store holds, taken at
            # its last LSN.  The replica becomes them and checkpoints; the
            # frames journaled after the base stream on later ships.
            wal = self.service.durability.wal
            body["BaseLsn"], body["BaseChain"] = wal.last_lsn, wal.chain
            body["Bootstrap"] = [{"Op": op, "Data": data} for op, data in dump(self.service)]
            pending = []
        else:
            pending = [bf for bf in self._buffer if bf.lsn > link.acked_lsn]
        span.set_attributes(frames=len(pending), resync=link.resync)
        if not pending and not link.resync:
            span.set_attribute("outcome", "noop")
            return True
        body.update(encode_ship(pending))
        span.set_attribute("bytes", len(body["Stream"]))
        try:
            reply = link.client.post(f"https://{link.host}/api/replicate/append", body)
        except ConflictError:
            # The replica follows a newer epoch: we are a fenced zombie.
            span.set_attribute("outcome", "fenced")
            self._c_fenced.inc()
            self.service.demote()
            return False
        except (TransportError, ServiceError):
            span.set_attribute("outcome", "unreachable")
            link.alive = False
            link.fails += 1
            if link.fails >= LAGGING_AFTER_FAILURES and not link.resync:
                # Declared lagging: stop letting a dead replica pin the
                # in-memory frame buffer.  Its acked position is void —
                # when it returns, a resync converges it instead.
                link.resync = True
                link.acked_lsn = 0
            self._c_failures.inc()
            return False
        link.alive = True
        link.fails = 0
        applied = int(reply.get("AppliedLsn", link.acked_lsn))
        rejected = reply.get("Rejected")
        if rejected:
            # Continuity mismatch: adopt the replica's truth and re-ship
            # with resync semantics on the next pump.
            span.set_attribute("outcome", "rejected")
            link.acked_lsn = applied
            link.resync = True
            return False
        span.set_attribute("outcome", "ok")
        link.acked_lsn = applied if link.resync else max(link.acked_lsn, applied)
        link.resync = False
        self._c_ships.inc()
        self._c_frames.inc(len(pending))
        return not pending or link.acked_lsn >= pending[-1].lsn

    def pump(self) -> int:
        """Ship pending frames to every replica; returns replicas caught up."""
        caught_up = 0
        for link in list(self.links.values()):
            if self._ship_to(link):
                caught_up += 1
            if not self.service.is_primary:  # fenced: a replica follows a newer epoch
                break
        self._trim()
        return caught_up

    def _trim(self) -> None:
        """Drop buffered frames every streaming link has acked.

        Only a link mid-stream needs the buffer: a resyncing one is sent
        the primary's records instead.  So a link declared lagging (dead
        past :data:`LAGGING_AFTER_FAILURES`) pins nothing, which is what
        keeps the buffer bounded while a replica is down for a long time.
        """
        floor = min((link.acked_lsn for link in self.links.values() if not link.resync),
                    default=None)
        if floor is None:
            self._buffer = []
        elif self._buffer and self._buffer[0].lsn <= floor:
            self._buffer = [bf for bf in self._buffer if bf.lsn > floor]

    def after_write(self) -> None:
        """The service's per-request replication barrier.

        Called after every mutating API request: ships, then *requires* a
        replica to hold every frame this request journaled, or the request
        is rejected (the client retries — upload dedupe and idempotent
        rule replace make those retries safe).
        """
        target = self.last_lsn()
        self.pump()
        if not self.service.is_primary:
            self._c_rejected.inc()
            raise ReplicationError(
                f"store {self.service.host!r} was fenced at epoch "
                f"{self.service.epoch}; writes rejected"
            )
        if not any(link.acked_lsn >= target for link in self.links.values()):
            self._c_rejected.inc()
            raise ReplicationError(
                f"write needs a replica ack up to lsn {target}; "
                "reachable replicas are behind or down"
            )



class ReplicaApplier:
    """Verifies and applies shipped WAL frames on a replica store.

    Frames install through :func:`repro.storage.records.apply` — the
    code path crash recovery trusts — which re-journals them into the
    replica's own WAL at their shipped LSN, so a replica crash recovers
    to the replicated state and its position.  A resync installs through
    :func:`repro.storage.records.replace` and a checkpoint instead.
    """

    def __init__(self, service):
        if service.durability is None:
            raise StorageError(f"store {service.host!r} is not durable; its WAL is its position")
        self.service = service
        self.chain = 0
        self.frames_applied = 0
        self.frames_skipped = 0
        self.bootstrap_applied = 0
        #: Why every batch but a resync is refused (its reply acks nothing),
        #: or "" while a resync is installed and no own record journaled since.
        self.refused = "no resync installed since this store started"
        m = service.network.obs.metrics
        self._c_applied = m.counter("replication_frames_applied_total", store=service.host)
        self._c_stale = m.counter("replication_stale_epoch_total", store=service.host)

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
                applied_lsn=reply["AppliedLsn"],
                outcome="rejected" if reply.get("Rejected") else "ok",
            )
            return reply

    def _apply_batch(self, body: dict, span) -> dict:
        service = self.service
        epoch = int(body.get("Epoch", 0))
        if epoch < service.epoch:
            self._c_stale.inc()
            raise StaleEpochError(
                f"ship from epoch {epoch} rejected: {service.host!r} follows "
                f"epoch {service.epoch}"
            )
        frames = decode_ship(body)  # refused whole, before anything below moves
        span.set_attribute("frames", len(frames))
        service.epoch = epoch
        if body.get("Resync"):
            refused = self._resync(body, epoch)
        else:
            refused = self.refused
        for lsn, frame, chain_prev in [] if refused else frames:
            if not self._apply_frame(lsn, frame, chain_prev):
                refused = f"continuity break at lsn {lsn}"
                break
        reply = {"AppliedLsn": 0 if self.refused else service.durability.wal.last_lsn}
        return {**reply, "Rejected": refused} if refused else reply

    def _resync(self, body: dict, epoch: int) -> str:
        """Become the primary's records at ``BaseLsn``; why not, or ''.

        The state is replaced (:func:`repro.storage.records.replace`), then
        checkpointed at the base under ``epoch``.  No ``Bootstrap`` is
        refused: it would leave a hole below the first frame on a promotion
        candidate.  A ``Bootstrap`` that is not a list of records of known
        kinds is refused whole, before anything moves.
        """
        base, chain = int(body.get("BaseLsn", 0)), int(body.get("BaseChain", 0))
        bootstrap = body.get("Bootstrap")
        if bootstrap is None:
            return "resync carries no state bootstrap"
        if not isinstance(bootstrap, list) or not all(
            isinstance(r, dict) and r.get("Op") in KNOWN_OPS and isinstance(r.get("Data"), dict)
            for r in bootstrap
        ):
            raise CorruptRecordError("malformed resync: Bootstrap holds a non-record")
        self.refused = "the last resync did not finish"  # until the state below is on disk
        replace(self.service, [(r["Op"], r["Data"]) for r in bootstrap])
        self.service.durability.checkpoint(lsn=base, epoch=epoch)
        self.bootstrap_applied += len(bootstrap)
        self.chain = chain
        self.refused = ""
        return ""

    def journaled_own(self, lsn: int) -> None:
        """This store journaled a record of its own at ``lsn``: its
        primary's frame for that LSN can no longer apply, so every batch
        but a resync is refused until the next one installs."""
        if not self.refused:
            self.refused = f"own record at lsn {lsn} journaled since the last resync"

    def _apply_frame(self, lsn: int, frame: bytes, chain_prev: int) -> bool:
        """Verify + apply one frame; False on a continuity rejection."""
        last = self.service.durability.wal.last_lsn
        if lsn <= last:
            self.frames_skipped += 1  # idempotent re-ship
            return True
        # The next LSN, and a ChainPrev that extends our chain — or is
        # zero, which marks the primary's checkpoint reset (a new log
        # generation).  Anything else is a gap: frames lost in shipping.
        if lsn != last + 1 or chain_prev not in (self.chain, 0):
            return False
        frame_lsn, chain, payload = decode_frame(frame, chain_prev=chain_prev)
        if frame_lsn != lsn:
            raise CorruptRecordError(
                f"shipped frame lsn mismatch: envelope {lsn}, frame {frame_lsn}"
            )
        op, data = decode_payload(payload)
        # The payload is CRC-, chain- and LSN-verified: journal those bytes.
        apply(self.service, op, data, journal=True, payload=payload)
        self.chain = chain
        self.frames_applied += 1
        self._c_applied.inc()
        return True
