"""The smartphone agent: sensing gate, context annotation, batched upload.

The agent processes a contributor's sensor stream in four steps:

1. **Sensing gate** (location+time, context-agnostic), per packet: a
   sensor is left off when *no* rule could release its data at the current
   location and time under *any* context — evaluated by stripping context
   conditions from the downloaded rules (optimistic), so a channel that is
   shareable only in some context is still temporarily collected.
2. **Context inference** over the temporarily collected samples, in fixed
   windows of time (:class:`~repro.context.annotate.ContextAnnotator`): a
   window's labels come from every sensed sample that falls in it, and a
   packet is stamped with the labels of the window holding its first
   sample.  Packets the sensing gate turned off feed nothing — data the
   rules say must not be collected cannot shape a label either.
3. **Upload gate** (exact): each packet, now annotated with inferred
   context, is evaluated against the owner's real rules for every consumer
   named in them; packets nobody could ever receive are discarded.
4. **Batched upload** of the survivors to the remote data store.

Per-sample energy costs are charged for every *sensed* sample, so the C3
benchmark can report the energy the gate saves alongside the privacy it
buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.context.annotate import ContextAnnotator
from repro.datastore.wavesegment import segment_from_packet
from repro.exceptions import BadRequestError, OverloadedError, ServiceError, TransportError
from repro.net.client import HttpClient
from repro.obs import NOOP_OBS
from repro.rules.engine import RuleEngine
from repro.rules.model import Rule
from repro.rules.parser import rules_from_json
from repro.sensors.packets import SensorPacket, encode_upload
from repro.util.geo import LabeledPlace

#: Sentinel for "a consumer matched only by wildcard (no-Consumer) rules".
ANYONE = "__anyone__"

#: Relative per-sample sensing energy cost (dimensionless units), loosely
#: ordered by real duty-cycle cost: GPS is expensive, accelerometer cheap.
ENERGY_COST = {
    "GpsLat": 8.0,
    "GpsLon": 8.0,
    "MicAmplitude": 4.0,
    "ECG": 2.0,
    "Respiration": 2.0,
    "AccelX": 1.0,
    "AccelY": 1.0,
    "AccelZ": 1.0,
    "SkinTemp": 0.5,
}


@dataclass
class CollectionStats:
    """Counters for one collection run."""

    samples_available: int = 0
    samples_sensed: int = 0
    samples_skipped_gate: int = 0
    samples_discarded_context: int = 0
    samples_uploaded: int = 0
    energy_units: float = 0.0
    upload_requests: int = 0
    #: upload attempts that failed (the request or its batch was not stored)
    upload_failures: int = 0
    #: packets actually acknowledged by the store
    packets_delivered: int = 0
    #: packets parked in the offline queue by failed uploads (cumulative)
    packets_buffered: int = 0
    #: buffered packets later delivered by a drain or a following upload
    packets_recovered: int = 0
    #: packets dropped on the floor (queue overflow, a non-resilient
    #: agent's failed batches, chunks the store refused)
    packets_lost: int = 0
    #: of those, packets in chunks the store refused as malformed (400)
    packets_refused: int = 0
    #: uploads deferred because the store asked for backoff (Retry-After)
    upload_backoffs: int = 0


@dataclass(frozen=True)
class PhoneConfig:
    """Agent knobs."""

    rule_aware: bool = False
    window_ms: int = 60_000
    upload_batch_packets: int = 200
    #: Buffer failed uploads in an offline queue and redeliver on recovery
    #: (the paper's "no sensed-and-permitted data is ever lost" property).
    #: When off, a failed batch is counted lost and the agent moves on —
    #: the naive baseline benchmark C7 measures against.
    resilient: bool = True
    #: Hard cap on the offline queue; beyond it the oldest packets are
    #: dropped (and counted lost) so a dead store cannot exhaust the phone.
    offline_queue_packets: int = 50_000


class SmartphoneAgent:
    """One contributor's phone."""

    def __init__(
        self,
        contributor: str,
        store_host: str,
        client: HttpClient,
        config: Optional[PhoneConfig] = None,
    ):
        self.contributor = contributor
        self.store_host = store_host
        self.client = client
        self.config = config or PhoneConfig()
        self.annotator = ContextAnnotator(window_ms=self.config.window_ms)
        self.rules: tuple = ()
        self.places: dict = {}
        self.stats = CollectionStats()
        self._offline_queue: list[SensorPacket] = []
        # Observability: queue depth as a gauge, overflow drops as a
        # counter, both labelled by contributor (a name, never a value).
        # A clientless agent (offline unit tests) meters into the shared
        # disabled hub.
        self.obs = client.network.obs if client is not None else NOOP_OBS
        self.obs.metrics.gauge(
            "phone_offline_queue_depth",
            callback=lambda: len(self._offline_queue),
            contributor=contributor,
        )
        self._c_dropped = self.obs.metrics.counter(
            "phone_packets_dropped_total", contributor=contributor
        )
        self._flush_pending = False
        #: Simulated-clock timestamp before which the agent will not send:
        #: set from the store's Retry-After hint on a typed 503 shed, so a
        #: fleet of phones drains an overloaded store instead of hammering it.
        self._backoff_until_ms = 0
        self._exact_engine: Optional[RuleEngine] = None
        self._optimistic_engine: Optional[RuleEngine] = None
        self._consumers: tuple = ()

    # ------------------------------------------------------------------
    # Rule download and local engines
    # ------------------------------------------------------------------

    def download_rules(self) -> int:
        """Fetch the owner's rules and places from their data store."""
        body = self.client.post(
            f"https://{self.store_host}/api/rules/download",
            {"Contributor": self.contributor},
        )
        rules = tuple(rules_from_json(body.get("Rules", [])))
        places = {
            place.label: place
            for place in (LabeledPlace.from_json(p) for p in body.get("Places", []))
        }
        self.set_rules(rules, places)
        return int(body.get("Version", 0))

    def set_rules(self, rules: Iterable[Rule], places: dict) -> None:
        """Install rules directly (offline path used by tests/benchmarks)."""
        self.rules = tuple(rules)
        self.places = dict(places)
        self._exact_engine = RuleEngine(self.rules, self.places)
        # Optimistic view: assume whatever context is most favorable to
        # sharing.  Context conditions on Allow rules are treated as
        # satisfied (strip them); context-conditioned Deny/Abstraction
        # rules might not fire, so they are dropped entirely.
        stripped = []
        for rule in self.rules:
            if not rule.contexts:
                stripped.append(rule)
            elif rule.action.is_allow:
                stripped.append(replace_contexts(rule))
        self._optimistic_engine = RuleEngine(stripped, self.places)
        names: set = set()
        wildcard = False
        for rule in self.rules:
            if rule.consumers:
                names.update(rule.consumers)
            else:
                wildcard = True
        if wildcard:
            names.add(ANYONE)
        self._consumers = tuple(sorted(names))

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------

    #: Neutral context values used for optimistic sensing probes, so that
    #: label-level releases (e.g. "share Stress as a label") are visible
    #: to the gate even before any context has been inferred.
    _NEUTRAL_CONTEXT = {
        "Activity": "Still",
        "Stress": "NotStressed",
        "Conversation": "NotConversation",
        "Smoking": "NotSmoking",
    }

    def sensing_allowed(self, packet: SensorPacket) -> bool:
        """Could this packet's channel ever be shared at this place/time?

        Context-optimistic: context conditions on Allow rules are assumed
        satisfied and context-conditioned restrictions assumed inactive,
        so "share only while driving" keeps the sensor on (the phone must
        collect to find out whether the owner is driving).
        """
        if not self.config.rule_aware:
            return True
        probe = segment_from_packet(self.contributor, packet)
        probe = probe.with_context(dict(self._NEUTRAL_CONTEXT))
        engine = self._optimistic_engine
        assert engine is not None, "rules not downloaded"
        return any(
            self._channel_released(packet.channel_name, engine.evaluate_segment(c, probe))
            for c in self._consumers
        )

    def should_upload(self, packet: SensorPacket) -> bool:
        """Exact gate: would any consumer receive this packet's data —
        raw, or as a context label inferable from this channel?"""
        if not self.config.rule_aware:
            return True
        segment = segment_from_packet(self.contributor, packet)
        engine = self._exact_engine
        assert engine is not None, "rules not downloaded"
        return any(
            self._channel_released(packet.channel_name, engine.evaluate_segment(c, segment))
            for c in self._consumers
        )

    @staticmethod
    def _channel_released(channel_name: str, released) -> bool:
        """Did anything derived from this channel leave the rule engine?

        A release is attributable to the channel when it carries the raw
        channel itself, or a context label of a category inferable from
        the channel.  Location metadata alone is not a reason to keep a
        motion or physiological sensor running.
        """
        from repro.sensors.contexts import categories_for_channel

        relevant = set(categories_for_channel(channel_name))
        for item in released:
            if item.segment is not None:
                return True
            if relevant & set(item.context_labels):
                return True
        return False

    # ------------------------------------------------------------------
    # The collection loop
    # ------------------------------------------------------------------

    def collect(self, packets: Iterable[SensorPacket], *, upload: bool = True) -> list:
        """Run the full pipeline over a packet stream.

        Returns the packets that passed both gates (annotated with
        *inferred* context), ordered by the window of their first sample
        and, within one, as they were given — so a stream handed over in
        time order reaches the optimizer in time order; uploads them in
        batches unless ``upload=False`` (used by benchmarks that only
        measure the gate).  Inference sees this call's sensed packets
        only: nothing is carried from one call to the next.
        """
        stats = self.stats
        sensed: list[SensorPacket] = []
        for packet in packets:
            n = len(packet.values)
            stats.samples_available += n
            if self.sensing_allowed(packet):
                sensed.append(packet)
                stats.samples_sensed += n
                stats.energy_units += ENERGY_COST.get(packet.channel_name, 1.0) * n
            else:
                stats.samples_skipped_gate += n

        kept: list[SensorPacket] = []
        for annotated in self.annotator.stamp(sensed):
            if self.should_upload(annotated):
                kept.append(annotated)
                stats.samples_uploaded += len(annotated.values)
            else:
                stats.samples_discarded_context += len(annotated.values)

        if upload:
            self.upload(kept)
        return kept

    def upload(self, packets: list) -> None:
        """Ship packets to the remote data store in batches.

        Resilient mode (the default): a batch that fails — store down,
        request dropped, 5xx — is parked in the offline queue together
        with everything behind it (order preserved), and redelivered by
        the next :meth:`upload` or an explicit :meth:`drain_offline` once
        the store recovers.  Non-resilient agents count the failed batch
        as lost and move on.  A chunk the store answers 400 is lost either
        way (``packets_refused``) and the chunks behind it still go out.

        A chunk is one :func:`~repro.sensors.packets.encode_upload` frame.
        The final chunk carries ``"Flush": true`` so the store finalizes,
        fsyncs and replicates in that same request; the separate
        ``/api/flush`` is sent only when no reply said ``Flushed`` (the
        final chunk failed, or the store does not know the field).
        """
        if self._backing_off():
            # The store asked for breathing room; park everything rather
            # than contributing to the very overload it is shedding.
            if self.config.resilient:
                self.stats.upload_backoffs += 1
                self._buffer(list(packets))
            else:
                self.stats.packets_lost += len(packets)
            return
        recovering = len(self._offline_queue)
        pending = self._offline_queue + list(packets)
        self._offline_queue = []
        batch = self.config.upload_batch_packets
        for offset in range(0, len(pending), batch):
            chunk = pending[offset : offset + batch]
            try:
                sent = self._post_chunk(chunk, flush=offset + batch >= len(pending))
            except BadRequestError:
                # A 400 is final: the store refuses this chunk as malformed
                # and always will, so parking it would re-send it ahead of
                # everything behind it until the queue overflowed.
                self.stats.upload_failures += 1
                self.stats.packets_lost += len(chunk)
                self.stats.packets_refused += len(chunk)
                continue
            if not sent:
                remainder = pending[offset:]
                if self.config.resilient:
                    self._buffer(remainder)
                else:
                    self.stats.packets_lost += len(remainder)
                    self._flush_pending = True
                break
            self.stats.packets_recovered += max(0, min(len(chunk), recovering - offset))
        self._try_flush()

    #: Backoff applied when an overloaded store supplies no Retry-After hint.
    _DEFAULT_BACKOFF_MS = 1_000

    def _backing_off(self) -> bool:
        """Is the agent inside a Retry-After window from the store?"""
        if self._backoff_until_ms <= 0 or self.client is None:
            return False
        return self.client.network.clock.now_ms() < self._backoff_until_ms

    def _post_chunk(self, chunk: list, *, flush: bool = False) -> bool:
        body = {"Contributor": self.contributor, "Upload": encode_upload(chunk)}
        if flush:
            body["Flush"] = True
        try:
            reply = self.client.post(
                f"https://{self.store_host}/api/upload_packets", body
            )
        except OverloadedError as exc:
            # A typed shed is an explicit answer: honor its Retry-After
            # hint and stop sending until the window passes.
            self.stats.upload_failures += 1
            hint = max(exc.retry_after_ms, self._DEFAULT_BACKOFF_MS)
            self._backoff_until_ms = self.client.network.clock.now_ms() + hint
            return False
        except BadRequestError:
            raise  # final, not retryable: upload() counts the chunk refused
        except (TransportError, ServiceError):
            self.stats.upload_failures += 1
            return False
        self.stats.upload_requests += 1
        self.stats.packets_delivered += len(chunk)
        # Delivered data awaits a flush unless this very reply carried one.
        self._flush_pending = not reply.get("Flushed")
        return True

    def _buffer(self, packets: list) -> None:
        self.stats.packets_buffered += len(packets)
        self._offline_queue.extend(packets)
        overflow = len(self._offline_queue) - self.config.offline_queue_packets
        if overflow > 0:
            del self._offline_queue[:overflow]
            self.stats.packets_lost += overflow
            self._c_dropped.inc(overflow)

    def _try_flush(self) -> None:
        if not self._flush_pending:
            return
        try:
            self.client.post(
                f"https://{self.store_host}/api/flush", {"Contributor": self.contributor}
            )
        except (TransportError, ServiceError):
            if not self.config.resilient:
                self._flush_pending = False  # naive agent gives up
            return
        self._flush_pending = False

    @property
    def offline_backlog(self) -> int:
        """Packets currently parked in the offline queue."""
        return len(self._offline_queue)

    def drain_offline(self, *, max_rounds: int = 8, round_delay_ms: int = 5_000) -> int:
        """Redeliver the offline queue; returns packets still queued.

        Each round is one :meth:`upload` pass over the backlog; the
        client's retry policy supplies backoff between attempts, and
        ``round_delay_ms`` passes on the simulated clock between rounds
        (the phone waking up periodically) so an open circuit breaker can
        reach its half-open probe.  Stops early once the queue is empty
        and any pending flush went through.
        """
        for round_no in range(max_rounds):
            if not self._offline_queue and not self._flush_pending:
                break
            if round_no:
                delay = round_delay_ms
                if self._backoff_until_ms > 0:
                    clock = self.client.network.clock
                    delay = max(delay, self._backoff_until_ms - clock.now_ms())
                self.client.network.clock.sleep(delay)
            self.upload([])
        return len(self._offline_queue)


def replace_contexts(rule: Rule) -> Rule:
    """A copy of ``rule`` with its context condition removed.

    Used to build the optimistic sensing-gate engine: whether the context
    condition would hold is unknowable before collecting, so the gate
    assumes it might.
    """
    return Rule(
        consumers=rule.consumers,
        location_labels=rule.location_labels,
        location_regions=rule.location_regions,
        time=rule.time,
        sensors=rule.sensors,
        contexts=(),
        action=rule.action,
        note=rule.note,
    )
