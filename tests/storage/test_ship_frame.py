"""The ship frame: ``encode_ship`` / ``decode_ship``.

A batch of WAL frames travels primary → replica as one ``Stream`` — the
frames' exact bytes, a binary part of the request — beside one ``[lsn,
chain_prev]`` envelope entry per frame.  These tests hold the pair to being lossless byte for
byte, to refusing — whole, before anything on the replica moves — a
stream its headers do not cut into exactly the envelope's frames, and to
keeping every check the applier made on a frame when each travelled as
its own hex string.
"""

import base64

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import CorruptRecordError
from repro.net import wire
from repro.rules.model import ALLOW, Rule
from repro.storage.records import dump
from repro.storage.replication import decode_ship, encode_ship
from repro.storage.wal import HEADER_SIZE, encode_frame
from repro.util import jsonutil

from tests.conftest import make_segment, read_wal_frames
from tests.storage.test_replication import make_pair, ship

_U32 = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def shipped_frames(draw):
    """Triples as ``read_wal_frames`` yields them; ``chain_prev`` is free,
    so a mid-batch 0 (a checkpoint reset) is drawn like any other value."""
    triples = []
    for payload in draw(st.lists(st.binary(max_size=300), max_size=6)):
        lsn, chain_prev = draw(_U32), draw(st.one_of(st.just(0), _U32))
        triples.append((lsn, encode_frame(lsn, chain_prev, payload)[0], chain_prev))
    return triples


def over_the_wire(body):
    return wire.decode(wire.encode(body))


@settings(max_examples=150, deadline=None)
@given(shipped_frames())
def test_round_trip_is_byte_for_byte(frames):
    body = encode_ship(frames)
    assert set(body) == {"Frames", "Stream"} and len(body["Frames"]) == len(frames)
    assert decode_ship(over_the_wire(body)) == frames


def test_the_stream_is_the_frames_bytes_and_nothing_else():
    frames = [(7, encode_frame(7, 0, b'{"Op":"x"}')[0], 0), (8, encode_frame(8, 5, b"")[0], 5)]
    body = encode_ship(frames)
    assert body["Stream"] == frames[0][1] + frames[1][1] and type(body["Stream"]) is bytes
    assert body["Frames"] == [[7, 0], [8, 5]]
    assert encode_ship([]) == {"Frames": [], "Stream": b""} and decode_ship(encode_ship([])) == []
    # on the wire the stream costs its own length: no base64, no escaping
    assert wire.size(body) == len('{"Frames":[[7,0],[8,5]],"Stream":{"$bytes":50}}\n') + 50


def test_a_ship_names_no_sender(tmp_path):
    """A replica knows its primary by the ship key the link holds, so a
    body carries the epoch, the resync flag and the frames (and a resync's
    base and records), never the sender's host."""
    _, primary, _ = make_pair(tmp_path)
    client = primary.replication.links["replica-0"].client
    sent, post = [], client.post
    client.post = lambda url, body, **kwargs: sent.append(set(body)) or post(url, body, **kwargs)
    primary.register_contributor("alice")
    primary.replication.pump()
    primary.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
    primary.replication.pump()
    stream = {"Epoch", "Resync", "Frames", "Stream"}
    assert sent == [stream | {"BaseLsn", "BaseChain", "Bootstrap"}, stream]


# ---------------------------------------------------------------------------
# Adversarial ships
# ---------------------------------------------------------------------------


@pytest.fixture()
def pair(tmp_path):
    """A replica that has applied the primary's first frame; four more wait."""
    _, primary, (replica,) = make_pair(tmp_path)
    primary.register_contributor("alice")
    primary.rules.add("alice", Rule(consumers=("bob",), action=ALLOW))
    for i in range(3):
        primary.store.add_segment(make_segment(start_ms=1297036800000 + i * 60_000))
    primary.store.flush()
    primary.durability.commit()
    frames = read_wal_frames(primary.durability.wal.path)
    assert len(frames) == 5
    assert replica.applier.apply_batch(ship(frames[:1], Resync=True, Bootstrap=[])) == {"AppliedLsn": 1}
    return primary, replica, frames[1:]


def replica_state(replica):
    applier = replica.applier
    return (
        replica.durability.wal.last_lsn,
        applier.chain,
        applier.frames_applied,
        replica.epoch,
        read_wal_frames(replica.durability.wal.path),
        jsonutil.canonical_dumps(dump(replica)),
    )


def _stream(frames, cut=None, extra=b""):
    return b"".join(frame for _lsn, frame, _chain_prev in frames)[:cut] + extra


def malformed(frames):
    """name -> the two ship members; ``frames`` are four applicable frames."""
    good = encode_ship(frames)
    envelope = good["Frames"]
    total = sum(len(frame) for _lsn, frame, _chain_prev in frames)
    last = len(frames[-1][1])
    return {
        "no Stream": {"Frames": envelope},
        "no Frames": {"Stream": good["Stream"]},
        "Frames is a number": {**good, "Frames": 4},
        "Frames is null": {**good, "Frames": None},
        "Frames is text": {**good, "Frames": "1234"},
        "entry is a number": {**good, "Frames": envelope[:3] + [5]},
        "entry has one member": {**good, "Frames": envelope[:3] + [[5]]},
        "entry has three members": {**good, "Frames": envelope[:3] + [[5, 0, 0]]},
        "entry lsn is text": {**good, "Frames": envelope[:3] + [["five", 0]]},
        "entry chain is null": {**good, "Frames": envelope[:3] + [[5, None]]},
        "entry is the parent's hex object": {
            **good,
            "Frames": envelope[:3]
            + [{"Lsn": 5, "ChainPrev": frames[3][2], "Frame": frames[3][1].hex()}],
        },
        # the parent's base64 text is not a second wire form
        "Stream is a str": {**good, "Stream": base64.b64encode(good["Stream"]).decode("ascii")},
        "Stream is hex": {**good, "Stream": good["Stream"].hex()},
        "Stream is a bytearray": {**good, "Stream": bytearray(good["Stream"])},
        "Stream is a number": {**good, "Stream": 7},
        "Stream is null": {**good, "Stream": None},
        "Stream is a list of streams": {**good, "Stream": [good["Stream"]]},
        "Stream is not ASCII": {**good, "Stream": "éééé"},
        "ends inside the last header": {**good, "Stream": _stream(frames, total - last + 7)},
        "ends at the last header": {**good, "Stream": _stream(frames, total - last)},
        "ends inside the last payload": {**good, "Stream": _stream(frames, total - 1)},
        "one trailing byte": {**good, "Stream": _stream(frames, extra=b"\x00")},
        "a trailing header": {**good, "Stream": _stream(frames, extra=frames[0][1][:HEADER_SIZE])},
        "a frame the envelope does not list": {**good, "Frames": envelope[:3]},
        "an entry the stream does not hold": {**good, "Frames": envelope + [[6, 0]]},
        "an envelope and no stream": {**good, "Stream": b""},
        "a stream and no envelope": {**good, "Frames": []},
        "a header that promises 4 GB": {
            **good,
            "Stream": _stream(frames[:3], extra=b"\xff\xff\xff\xff" + frames[3][1][4:]),
        },
    }


NAMES = sorted(malformed([(1, b"\0" * HEADER_SIZE, 0)] * 4))


def test_the_well_formed_ship_applies(pair):
    primary, replica, frames = pair
    assert replica.applier.apply_batch(over_the_wire(ship(frames))) == {"AppliedLsn": 5}
    assert replica.store.stats.n_segments == 3


@pytest.mark.parametrize("name", NAMES)
def test_malformed_ship_is_refused_before_any_frame_is_applied(pair, name):
    """The first three frames of every case are applicable as they stand;
    none of them may land, and the refusal is the typed error."""
    _, replica, frames = pair
    members = malformed(frames)[name]
    with pytest.raises(CorruptRecordError):
        decode_ship(members)
    before = replica_state(replica)
    body = {"Primary": "primary", "Epoch": 3, "Resync": False, **members}
    with pytest.raises(CorruptRecordError):
        replica.applier.apply_batch(body)
    assert replica_state(replica) == before  # the epoch it named included


@pytest.mark.parametrize(
    "name", ["ends inside the last payload", "entry is the parent's hex object"]
)
def test_over_the_network_it_is_a_400(pair, name):
    _, replica, frames = pair
    before = replica_state(replica)
    response = replica.network.request(
        "POST",
        "https://replica-0/api/replicate/append",
        {**ship(), **malformed(frames)[name], "ApiKey": replica.keys.key_of("__primary__")},
    )
    assert response.status == 400 and replica_state(replica) == before


# ---------------------------------------------------------------------------
# What the applier checked per hex frame, it checks per stream frame
# ---------------------------------------------------------------------------


def _flip(frame, index):
    return frame[:index] + bytes([frame[index] ^ 0x01]) + frame[index + 1 :]


def test_envelope_lsn_must_be_the_header_lsn(pair):
    _, replica, frames = pair
    (lsn, frame, chain_prev), rest = frames[0], frames[1:]
    relabelled = [(lsn, rest[0][1], chain_prev)]  # frame 3's bytes under lsn 2
    with pytest.raises(CorruptRecordError):
        replica.applier.apply_batch(ship(relabelled))
    assert replica.durability.wal.last_lsn == 1


@pytest.mark.parametrize(
    "index, reason",
    [(5, "header checksum"), (HEADER_SIZE + 3, "payload checksum"), (0, "header checksum")],
)
def test_a_flipped_bit_is_caught_by_the_frame_s_own_crcs(pair, index, reason):
    """The stream is cut by the lengths its headers declare, so a flipped
    *length* could mis-cut it; the header CRC still covers those bytes,
    and a mis-cut stream fails ``decode_ship`` or the CRC — never applies."""
    _, replica, frames = pair
    lsn, frame, chain_prev = frames[1]
    damaged = [frames[0], (lsn, _flip(frame, index), chain_prev)] + frames[2:]
    with pytest.raises(CorruptRecordError):
        replica.applier.apply_batch(ship(damaged))
    # index 0 flips the length: refused whole; otherwise frame 2 landed
    # first, exactly as when each frame travelled alone
    assert replica.durability.wal.last_lsn == (1 if index == 0 else 2)
    assert replica.applier.frames_applied == replica.durability.wal.last_lsn


def test_a_frame_bound_to_another_history_is_refused(pair):
    _, replica, frames = pair
    lsn, frame, _chain_prev = frames[1]
    with pytest.raises(CorruptRecordError, match="chain"):
        # claims to start a new generation (0), but its chain extends frame 2
        replica.applier.apply_batch(ship([frames[0], (lsn, frame, 0)]))
    assert replica.durability.wal.last_lsn == 2


def test_a_chain_prev_that_is_neither_ours_nor_zero_is_a_continuity_break(pair):
    _, replica, frames = pair
    lsn, frame, chain_prev = frames[0]
    reply = replica.applier.apply_batch(ship([(lsn, frame, chain_prev ^ 1)]))
    assert reply == {"AppliedLsn": 1, "Rejected": "continuity break at lsn 2"}


def test_gaps_and_reships_are_answered_as_before(pair):
    _, replica, frames = pair
    assert "Rejected" in replica.applier.apply_batch(ship(frames[1:]))  # lsn 3 after 1
    assert replica.applier.apply_batch(ship(frames[:2])) == {"AppliedLsn": 3}
    skipped = replica.applier.frames_skipped
    assert replica.applier.apply_batch(ship(frames)) == {"AppliedLsn": 5}  # 2, 3 again
    assert replica.applier.frames_skipped == skipped + 2
