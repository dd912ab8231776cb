"""Stored bytes are a function of the packets, not of the wire form.

A seeded two-hour stream goes phone → durable primary → semi-sync
replica through the public API, and the sha256 over each side's WAL
payloads must equal what commit ``a61bce2`` journaled for the same
packets (``stored_bytes_a61bce2.json``, written by running this module
as a script with that commit's ``src`` on ``PYTHONPATH``).  That commit
uploaded JSON value lists and shipped hex frames; whatever the wire
carries since, the journal — segment ids, merges, per-packet dedupe,
record order, the replica's verbatim copy — does not move.

Since a resync is one export, the replica's log starts above the resync's
base: the pinned replica log is its own broker pairing followed by every
primary payload, and today's is the primary's payloads above the base,
byte for byte (the records at or below it were installed and
checkpointed).

A contributor's role record has carried its credential (``Salt``,
``PasswordHash``) since; each role payload is hashed without those two
fields, which is exactly the bytes the pinned commit journaled for it.

And the segments one upload stored are journaled as one segment batch
record, their samples as one raw ``le-f64`` part beside the JSON (the
payload is its :mod:`repro.net.wire` form), where the pinned commit wrote
one record a segment with its samples as base64 text inside it.  Each
batch is hashed as the segment records its rows stand for, in row order,
each with its samples written back as that base64 blob, and the count is
of those records.  So rules, places and audit bytes are held to the pin
unchanged, and segment ids, merges, dedupe, record order and the
replica's verbatim copy are held to it through that one expansion, and
nothing else.
"""

import hashlib
import json
from pathlib import Path

from repro.collection.phone import PhoneConfig
from repro.core import SensorSafeSystem
from repro.datastore.codec import ENCODING_B64, ENCODING_RAW, decode_values, encode_values
from repro.net import wire
from repro.rules.model import ALLOW, Rule
from repro.sensors.personas import make_persona
from repro.sensors.simulator import SimulatorConfig, TraceSimulator
from repro.storage import records
from repro.storage.wal import HEADER_SIZE
from repro.util.jsonutil import canonical_dumps
from repro.util.timeutil import timestamp_ms

from tests.conftest import read_wal_frames

PINNED = Path(__file__).parent / "stored_bytes_a61bce2.json"
MONDAY = timestamp_ms(2011, 2, 7)
HOUR_MS = 3_600_000
BATCH_MS = 600_000
CREDENTIAL = ("Salt", "PasswordHash")
WAL_BUDGET = 9.5  # B per stored sample in the primary's journal


def pinned_payloads(payload):
    """A WAL payload as the records the pinned commit wrote for it: a role
    record loses its credential, a segment record's raw samples become
    their base64 blob, and a segment batch is the segment records its rows
    stand for, in row order."""
    record = wire.decode(payload)
    op, data = record["Op"], record["Data"]
    if op == records.OP_ROLE:
        pinned = [(op, {k: v for k, v in data.items() if k not in CREDENTIAL})]
    elif op == records.OP_SEGMENT:
        pinned = [(op, {**data, "Values": as_base64(decode_values(data["Values"]))})]
    elif op == records.OP_SEGMENT_BATCH:
        pinned = [(records.OP_SEGMENT, segment) for segment in expanded(data)]
    else:
        return [payload]
    return [canonical_dumps({"Op": op, "Data": data}).encode("utf-8") for op, data in pinned]


def as_base64(values):
    return encode_values(values, ENCODING_B64)


def expanded(batch):
    """The segment records a batch's rows stand for, rebuilt cell by cell."""
    flat, offset = decode_values(batch["Values"]).reshape(-1), 0
    for segment_id, start, interval, channels, capture, n in batch["Segments"]:
        location, context = batch["Captures"][capture]
        values = flat[offset : offset + n * len(channels)].reshape(n, len(channels))
        offset += n * len(channels)
        yield {
            "SegmentId": segment_id,
            "Contributor": batch["Contributor"],
            "StartTime": start,
            "SamplingInterval": interval,
            "Location": location,
            "Format": channels,
            "Values": as_base64(values),
            **({"Context": context} if context else {}),
        }
    assert offset == len(flat)


#: The replica's own broker pairing, the first record of its pinned log.
PAIRING = canonical_dumps(
    {"Op": records.OP_ROLE, "Data": {"Principal": "__broker__", "Role": "broker"}}
).encode("utf-8")


def wal_payloads(service):
    return [frame[HEADER_SIZE:] for _lsn, frame, _chain_prev in
            read_wal_frames(service.durability.wal.path)]


def digest_of(payloads):
    """``[sha256 over the pinned records in order, their count]``."""
    pinned = [record for payload in payloads for record in pinned_payloads(payload)]
    digest = hashlib.sha256()
    for record in pinned:
        digest.update(record)
    return [digest.hexdigest(), len(pinned)]


def wal_digest(service):
    """``[sha256 over the WAL's pinned records in order, their count]``."""
    return digest_of(wal_payloads(service))


def stored_bytes(directory):
    primary, replica = stream(directory)
    return {"primary": wal_digest(primary), "replica": wal_digest(replica)}


def stream(directory):
    system = SensorSafeSystem(seed=19)
    primary = system.create_replicated_store(
        "clinic", directory=str(directory), n_replicas=1
    )
    alice = system.add_contributor("alice", store=primary)
    persona = make_persona("alice")
    alice.set_places(persona.places.values())
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    trace = TraceSimulator(persona, SimulatorConfig(rate_scale=0.05), seed=19).run(MONDAY, days=1)
    # ~26 packets per ten-minute collect, so every upload is three chunks
    # and the flush rides the last one.
    phone = alice.phone(PhoneConfig(upload_batch_packets=10))
    packets = trace.all_packets_sorted()
    for start in range(MONDAY + 7 * HOUR_MS, MONDAY + 9 * HOUR_MS, BATCH_MS):
        phone.collect([p for p in packets if start <= p.start_ms < start + BATCH_MS])
    assert phone.stats.upload_failures == 0 and phone.stats.upload_requests > 24
    (role,) = [data for op, data in records.dump(primary, ["alice"]) if op == records.OP_ROLE]
    assert set(CREDENTIAL) <= set(role)
    return primary, system.stores["clinic-r1"]


def test_the_journal_holds_what_the_parent_journaled(tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    primary, replica = stream(tmp_path)
    ours, theirs = wal_payloads(primary), wal_payloads(replica)
    assert digest_of(ours) == pinned["primary"]
    assert digest_of([PAIRING] + ours) == pinned["replica"]
    # The resync's base is the primary's first record, its broker pairing.
    assert theirs == ours[1:]
    decoded = [wire.decode(payload) for payload in ours + theirs]
    # Every segment the stream stored was journaled inside a batch.
    assert records.OP_SEGMENT not in {r["Op"] for r in decoded}
    segments = [r["Data"]["Values"] for r in decoded if r["Op"] == records.OP_SEGMENT_BATCH]
    assert segments and all(
        (values["Encoding"], type(values["Blob"])) == (ENCODING_RAW, bytes)
        for values in segments
    )
    assert not any(ENCODING_B64.encode() in payload for payload in ours + theirs)


def test_the_journal_spends_a_sample_s_eight_bytes_and_a_record_s_share(tmp_path):
    """The primary's WAL bytes over the samples it stores: a float64 is 8
    of them, the rest is each record's JSON and frame header (~100 B a
    segment of ~72 samples here, as one batch row).  While the journal
    wrote samples as base64 text this stream cost 16.25 B a sample; with
    raw parts 13.71; with one batch record per upload 9.43."""
    primary, _ = stream(tmp_path)
    samples = sum(segment.n_samples for segment in primary.store.segments_of("alice"))
    per_sample = primary.durability.wal.size_bytes() / samples
    assert 8.0 < per_sample <= WAL_BUDGET, f"{per_sample:.2f} B per stored sample"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        PINNED.write_text(json.dumps(stored_bytes(work), indent=1) + "\n", encoding="utf-8")
