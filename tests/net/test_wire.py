"""The transport's wire form: ``repro.net.wire``.

A body travels as its canonical JSON, every ``bytes`` leaf replaced by
``{"$bytes": n}``, then one newline and the leaves themselves.  These
tests hold ``encode``/``decode`` to being a real, lossless pair over any
body a handler can build, ``size`` to being the encoder's length without
exception (it is what every traffic figure is counted with), bytes-free
bodies to costing exactly what they cost before there were parts, and
both directions to refusing what they could not give back.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SchemaError
from repro.net import wire
from repro.util.jsonutil import canonical_dumps

_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["Café ☕", "歩く", "\n", '{"$bytes":3}', "$bytes", '"$bytes', "\\", " "]),
)
_BYTES = st.one_of(
    st.binary(max_size=24),
    st.sampled_from([b"", b"\n", b"\n\n", b'{"$bytes":1}\n', b'{"a":1}', "é\n".encode(), b"\x00" * 16]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    _TEXT,
)
_KEYS = _TEXT.filter(lambda key: key != "$bytes")


def _bodies(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.dictionaries(_KEYS, inner, max_size=4)
        ),
        max_leaves=12,
    )


BODIES = _bodies(st.one_of(_SCALARS, _BYTES))
JSON_BODIES = _bodies(_SCALARS)


def _parts(body):
    """Every ``bytes`` leaf, in the order the canonical encoder meets them."""
    if isinstance(body, bytes):
        return [body]
    if isinstance(body, dict):
        return [part for key in sorted(body) for part in _parts(body[key])]
    if isinstance(body, list):
        return [part for item in body for part in _parts(item)]
    return []


@settings(max_examples=300, deadline=None)
@given(BODIES)
def test_round_trip_and_size(body):
    sent = wire.encode(body)
    assert type(sent) is bytes
    assert wire.decode(sent) == body
    assert wire.size(body) == len(sent)
    parts = _parts(body)
    assert wire.sizes(body) == (len(sent), sum(map(len, parts)))
    # the part section is the leaves and nothing else, in document order
    head, separator, tail = sent.partition(b"\n")
    assert tail == b"".join(parts) and bool(separator) == bool(parts)
    assert head.isascii() and head.count(b'"$bytes":') >= len(parts)


@settings(max_examples=200, deadline=None)
@given(JSON_BODIES)
def test_a_body_without_bytes_costs_what_it_always_cost(body):
    assert wire.encode(body) == canonical_dumps(body).encode()
    assert wire.size(body) == len(canonical_dumps(body))
    assert wire.sizes(body)[1] == 0 and b"\n" not in wire.encode(body)


def test_the_three_frames_by_hand():
    body = {
        "Stream": b"\x01\n\x02",
        "Frames": [[1, 0]],
        "Upload": {"Values": {"Blob": b"", "Samples": 0}, "Packets": []},
        "Name": "Café",
    }
    assert wire.encode(body) == (
        b'{"Frames":[[1,0]],"Name":"Caf\\u00e9","Stream":{"$bytes":3},'
        b'"Upload":{"Packets":[],"Values":{"Blob":{"$bytes":0},"Samples":0}}}'
        b"\n\x01\n\x02"
    )
    decoded = wire.decode(wire.encode(body))
    assert decoded == body and type(decoded["Upload"]["Values"]["Blob"]) is bytes
    assert wire.encode(b"top") == b'{"$bytes":3}\ntop' and wire.decode(b'{"$bytes":3}\ntop') == b"top"
    assert wire.encode([b"a", [b"bc"], {"k": b"d"}]) == (
        b'[{"$bytes":1},[{"$bytes":2}],{"k":{"$bytes":1}}]\nabcd'
    )


# ---------------------------------------------------------------------------
# encode refuses what decode could not give back
# ---------------------------------------------------------------------------

UNSENDABLE = {
    "a user key spelled like the placeholder": {"Query": {"$bytes": 3}},
    "... beside other keys": {"Query": {"$bytes": 3, "a": 1, " ": 2}},
    "... nested in a list beside a real part": [b"abc", {"x": [{"$bytes": "abc"}]}],
    "a bytearray": {"Blob": bytearray(b"abc")},
    "a memoryview": {"Blob": memoryview(b"abc")},
    "an ndarray": {"Blob": np.zeros(2)},
    "a numpy scalar": {"Samples": np.float64(1.0).astype("f4")},
    "a set": {"Channels": {"ECG"}},
    "a tuple key": {("a", "b"): 1},
    "NaN": {"Mean": math.nan},
    "inf beside a part": {"Blob": b"abc", "Max": math.inf},
    "-inf": [-math.inf],
}


@pytest.mark.parametrize("name", sorted(UNSENDABLE))
def test_encode_and_size_refuse(name):
    for measure in (wire.encode, wire.size, wire.sizes):
        with pytest.raises(SchemaError):
            measure(UNSENDABLE[name])


def test_text_that_only_looks_like_the_placeholder_is_just_text():
    for body in (
        {"Note": "$bytes"},
        {"Note": '{"$bytes":3}'},
        {'"$bytes': 1, 'a"$bytes': 2, "$bytes ": 3, "x$bytes": 4},
        ["$bytes", '"$bytes":'],
        {"Blob": b'{"$bytes":3}', "Note": '"$bytes":'},
    ):
        assert wire.decode(wire.encode(body)) == body


def test_a_refused_request_is_not_counted():
    """The transport measures before it dispatches: what ``size`` refuses
    never reaches the host, and nothing is booked against it."""
    from repro.net.http import Router
    from repro.net.transport import Network

    network, seen = Network(), []
    router = Router()
    router.add("POST", "/api/echo", lambda request: seen.append(request.body) or {})
    network.register_host("store", router)
    for name in sorted(UNSENDABLE):
        if not isinstance(UNSENDABLE[name], dict):
            continue
        with pytest.raises(SchemaError):
            network.request("POST", "https://store/api/echo", UNSENDABLE[name])
    traffic = network.metrics_of("store")
    assert seen == [] and (traffic.requests_in, traffic.bytes_in, traffic.bytes_out) == (0, 0, 0)
    network.request("POST", "https://store/api/echo", {"Blob": b"\n" * 5})
    assert seen == [{"Blob": b"\n" * 5}]
    assert traffic.bytes_in == len('{"Blob":{"$bytes":5}}\n') + 5 and traffic.bytes_out == len("{}")


# ---------------------------------------------------------------------------
# decode refuses what encode could not have written
# ---------------------------------------------------------------------------

_GOOD = wire.encode({"A": b"abc", "B": [b"", b"de"], "C": "text"})

UNREADABLE = {
    "truncated part section": _GOOD[:-1],
    "part section cut to nothing": _GOOD[: _GOOD.index(b"\n") + 1],
    "over-long part section": _GOOD + b"x",
    "a second separator and more": _GOOD + b"\n" + _GOOD,
    "missing separator": _GOOD.replace(b"\n", b"", 1),
    "separator and no part": _GOOD[: _GOOD.index(b"\n")],
    "a separator a bytes-free body never has": b'{"a":1}\n',
    "... with bytes behind it": b'{"a":1}\nabc',
    "an empty part and no separator": b'{"A":{"$bytes":0}}',
    "n is negative": b'{"A":{"$bytes":-1}}\n',
    "n is a float": b'{"A":{"$bytes":3.0}}\nabc',
    "n is an exponent": b'{"A":{"$bytes":3e0}}\nabc',
    "n is text": b'{"A":{"$bytes":"3"}}\nabc',
    "n is a boolean": b'{"A":{"$bytes":true}}\na',
    "n is null": b'{"A":{"$bytes":null}}\n',
    "n is a list": b'{"A":{"$bytes":[3]}}\nabc',
    "n is a placeholder": b'{"A":{"$bytes":{"$bytes":3}}}\nabc',
    "n overruns": b'{"A":{"$bytes":4}}\nabc',
    "second n overruns": b'{"A":{"$bytes":2},"B":{"$bytes":2}}\nabc',
    "placeholder with a second key": b'{"A":{"$bytes":3,"x":1}}\nabc',
    "head is not JSON": b'{"A":\nabc',
    "head is not ASCII": '{"A":"é"}'.encode(),
    "head is empty": b"\nabc",
    "nothing at all": b"",
}


def test_the_well_formed_body_reads():
    assert wire.decode(_GOOD) == {"A": b"abc", "B": [b"", b"de"], "C": "text"}
    assert wire.decode(bytearray(_GOOD)) == wire.decode(memoryview(_GOOD)) == wire.decode(_GOOD)


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_decode_refuses(name):
    with pytest.raises(SchemaError):
        wire.decode(UNREADABLE[name])


# ---------------------------------------------------------------------------
# Routes that carry no part count what they counted before there were parts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fleet, broker_bytes", [(2, 942), (5, 2_067), (10, 3_942)])
def test_the_broker_s_traffic_is_what_c2_always_read(fleet, broker_bytes):
    """``bench_c2``'s broker column (EXPERIMENTS.md C2), byte for byte: no
    upload or release crosses the broker, so none of its bodies holds a
    part and ``size`` is ``len(canonical_dumps(body))`` on every one."""
    from repro.core import SensorSafeSystem
    from repro.datastore.query import DataQuery
    from repro.rules.model import ALLOW, Rule
    from tests.conftest import make_segment

    system = SensorSafeSystem(seed=fleet)
    names = [f"c{i:02d}" for i in range(fleet)]
    for name in names:
        contributor = system.add_contributor(name)
        contributor.add_rule(Rule(consumers=("bob",), action=ALLOW))
        contributor.upload_segments([make_segment(n=16, contributor=name)])
        contributor.flush()
    bob = system.add_consumer("bob")
    bob.add_contributors(names)
    assert sum(r.n_samples for name in names for r in bob.fetch(name, DataQuery())) == 16 * fleet
    assert system.network.metrics_of("broker").total_bytes() == broker_bytes
    requests = [s for s in system.obs.tracer.finished if s.name == "net.request"]
    assert any(s.attributes["host"] == "broker" for s in requests)
    assert not any("part_bytes" in s.attributes for s in requests)  # owner uploads are stored-form JSON


def test_a_head_without_the_placeholder_is_parsed_without_the_hook(monkeypatch):
    """A head holding neither ``"$bytes"`` nor an escape that could spell it
    is parsed by the shared hookless decoder, and keeps every refusal: a
    separator with no placeholder before it is still refused."""

    def no_hook(**kwargs):
        raise AssertionError("a head with no placeholder built a hooked decoder")

    monkeypatch.setattr(wire.json, "JSONDecoder", no_hook)
    assert wire.decode(b'{"a":{"b":[1,{"c":null}]},"d":"bytes"}') == {
        "a": {"b": [1, {"c": None}]}, "d": "bytes",
    }
    for unreadable in (b'{"a":1}\n', b'{"a":1}\nabc', b"[1]\n", '{"A":"é"}'.encode(), b""):
        with pytest.raises(SchemaError):
            wire.decode(unreadable)


def test_an_escaped_placeholder_still_takes_the_hook():
    assert wire.decode(b'{"A":{"\\u0024bytes":3}}\nabc') == {"A": b"abc"}
    with pytest.raises(SchemaError):
        wire.decode(b'{"A":{"\\u0024bytes":3}}')
