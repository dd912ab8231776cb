"""Tests for the simulated network: metrics and the TLS invariant."""

import pytest

from repro.exceptions import InsecureTransportError, TransportError
from repro.net import wire
from repro.net.http import Response, Router
from repro.net.transport import Network
from repro.util import jsonutil


def make_network():
    network = Network()
    router = Router()
    router.add("POST", "/api/echo", lambda req: {"echo": req.body.get("msg", "")})
    network.register_host("store", router)
    return network


class TestUrlParsing:
    def test_https(self):
        assert Network.parse_url("https://host/api/x") == (True, "host", "/api/x")

    def test_http(self):
        assert Network.parse_url("http://host/") == (False, "host", "/")

    def test_default_path(self):
        assert Network.parse_url("https://host")[2] == "/"

    def test_malformed(self):
        with pytest.raises(TransportError):
            Network.parse_url("ftp://host/x")


class TestDelivery:
    def test_roundtrip(self):
        network = make_network()
        response = network.request("POST", "https://store/api/echo", {"msg": "hi"})
        assert response.body == {"echo": "hi"}

    def test_unknown_host(self):
        network = make_network()
        with pytest.raises(TransportError):
            network.request("POST", "https://ghost/api/echo", {})

    def test_duplicate_host_rejected(self):
        network = make_network()
        with pytest.raises(TransportError):
            network.register_host("store", Router())

    def test_a_host_taken_off_the_network_sends_nothing_until_it_returns(self):
        network = make_network()
        network.register_host("peer", Router())
        network.unregister_host("peer")
        with pytest.raises(TransportError, match="down"):
            network.request("POST", "https://store/api/echo", {}, client="peer")
        assert network.metrics_of("store").requests_in == 0
        network.register_host("peer", Router())
        assert network.request("POST", "https://store/api/echo", {}, client="peer").status == 200


class TestTlsInvariant:
    """Section 5.4: API keys travel only in HTTPS POST bodies."""

    def test_api_key_over_http_refused(self):
        network = make_network()
        with pytest.raises(InsecureTransportError):
            network.request("POST", "http://store/api/echo", {"ApiKey": "k"})

    def test_api_key_in_get_refused(self):
        network = make_network()
        with pytest.raises(InsecureTransportError):
            network.request("GET", "https://store/api/echo", {"ApiKey": "k"})

    def test_https_post_accepted(self):
        network = make_network()
        response = network.request("POST", "https://store/api/echo", {"ApiKey": "k"})
        assert response.ok

    def test_keyless_http_allowed(self):
        network = make_network()
        assert network.request("POST", "http://store/api/echo", {"msg": "x"}).ok


class TestTlsInvariantEdgeCases:
    """Section 5.4 corner cases: keys must not leak via GET bodies, plain
    http POSTs, or one level of nesting."""

    def test_api_key_in_get_body_refused(self):
        network = make_network()
        with pytest.raises(InsecureTransportError):
            network.request("GET", "https://store/api/echo", {"ApiKey": "k"})

    def test_api_key_in_http_post_refused(self):
        network = make_network()
        with pytest.raises(InsecureTransportError):
            network.request("POST", "http://store/api/echo", {"ApiKey": "k"})

    def test_api_key_nested_in_dict_refused_over_http(self):
        network = make_network()
        with pytest.raises(InsecureTransportError):
            network.request(
                "POST", "http://store/api/echo", {"Profile": {"ApiKey": "k"}}
            )

    def test_api_key_nested_in_list_refused_over_http(self):
        network = make_network()
        with pytest.raises(InsecureTransportError):
            network.request(
                "POST", "http://store/api/echo", {"Items": [{"ApiKey": "k"}]}
            )

    def test_api_key_nested_in_get_refused(self):
        network = make_network()
        with pytest.raises(InsecureTransportError):
            network.request(
                "GET", "https://store/api/echo", {"Profile": {"ApiKey": "k"}}
            )

    def test_nested_key_over_https_post_accepted(self):
        network = make_network()
        assert network.request(
            "POST", "https://store/api/echo", {"Profile": {"ApiKey": "k"}}
        ).ok


class TestMetrics:
    def test_bytes_and_requests_counted(self):
        network = make_network()
        before = network.metrics_of("store")
        assert before.requests_in == 0
        network.request("POST", "https://store/api/echo", {"msg": "hello"})
        after = network.metrics_of("store")
        assert after.requests_in == 1
        assert after.bytes_in > 0 and after.bytes_out > 0

    def test_larger_payload_more_bytes(self):
        network = make_network()
        network.request("POST", "https://store/api/echo", {"msg": "x"})
        small = network.metrics_of("store").bytes_in
        network.reset_metrics()
        network.request("POST", "https://store/api/echo", {"msg": "x" * 10_000})
        big = network.metrics_of("store").bytes_in
        assert big > small + 9000

    def test_reset(self):
        network = make_network()
        network.request("POST", "https://store/api/echo", {})
        network.reset_metrics()
        assert network.metrics_of("store").requests_in == 0

    def test_unknown_host_metrics(self):
        network = make_network()
        with pytest.raises(TransportError):
            network.metrics_of("ghost")

    def test_request_counted_when_handler_raises(self):
        """C2's traffic accounting must stay honest under faults: a request
        that reaches the host counts even if its handler blows up."""
        network = make_network()

        def explode(req):
            raise RuntimeError("handler bug")

        router = Router()
        router.add("POST", "/api/boom", explode)
        network.register_host("buggy", router)
        with pytest.raises(RuntimeError):
            network.request("POST", "https://buggy/api/boom", {"msg": "payload"})
        metrics = network.metrics_of("buggy")
        assert metrics.requests_in == 1
        assert metrics.bytes_in > 0
        assert metrics.bytes_out == 0  # no response ever left

    def test_injected_fault_response_counted(self):
        from repro.net.faults import FaultPlan

        plan = FaultPlan()
        plan.add_error("store", status=503)
        network = make_network()
        network.install_faults(plan)
        network.request("POST", "https://store/api/echo", {"msg": "x"})
        metrics = network.metrics_of("store")
        assert metrics.requests_in == 1 and metrics.bytes_out > 0

    def test_dropped_request_not_counted(self):
        from repro.exceptions import NetworkUnavailableError
        from repro.net.faults import FaultPlan

        plan = FaultPlan()
        plan.add_drop("store")
        network = make_network()
        network.install_faults(plan)
        with pytest.raises(NetworkUnavailableError):
            network.request("POST", "https://store/api/echo", {"msg": "x"})
        assert network.metrics_of("store").requests_in == 0  # never arrived


class TestWireAccounting:
    """``bytes_out`` is the wire length of what was delivered: taken
    from ``Response.wire_bytes`` when a handler declares it, measured
    otherwise — and never the declared size of a response a fault replaced."""

    #: samples may hold a newline, or text that looks like a placeholder
    BLOB = b"\x00\n\xff{\"$bytes\":3}"
    BODY = {
        "Released": {
            "Pieces": [{"ContextLabels": {"Activity": "Café ☕"}}],
            "Values": {"Encoding": "le-f64", "Blob": BLOB},
        },
        "Scanned": 10,
    }
    EXACT = len(wire.encode(BODY))

    def network(self, wire_bytes):
        network = Network()
        router = Router()
        router.add(
            "POST", "/api/data", lambda req: Response(body=self.BODY, wire_bytes=wire_bytes)
        )
        network.register_host("store", router)
        return network

    def test_canonical_json_is_ascii_so_its_length_is_a_byte_count(self):
        """... for the JSON head; a ``bytes`` part then costs its own length."""
        head, separator, parts = wire.encode(self.BODY).partition(b"\n")
        assert head.isascii() and separator and parts == self.BLOB
        assert head.decode() == jsonutil.canonical_dumps(
            {**self.BODY, "Released": {**self.BODY["Released"], "Values": {
                "Encoding": "le-f64", "Blob": {"$bytes": len(self.BLOB)}}}}
        )
        assert len(head) + 1 + len(self.BLOB) == self.EXACT == wire.size(self.BODY)
        assert wire.decode(wire.encode(self.BODY)) == self.BODY

    def test_undeclared_response_is_measured(self):
        network = self.network(None)
        network.request("POST", "https://store/api/data")
        assert network.metrics_of("store").bytes_out == self.EXACT

    def test_declared_size_is_what_gets_counted(self):
        # Off by one on purpose: the transport trusts a declared size, which
        # is why the conformance sweep re-measures every end-to-end response.
        network = self.network(self.EXACT + 1)
        network.request("POST", "https://store/api/data")
        assert network.metrics_of("store").bytes_out == self.EXACT + 1

    @pytest.mark.parametrize("fault", ["add_error", "add_response_error"])
    def test_fault_replaced_response_is_measured(self, fault):
        from repro.net.faults import FaultPlan

        plan = FaultPlan()
        getattr(plan, fault)("store", status=503)
        network = self.network(self.EXACT)
        network.install_faults(plan)
        response = network.request("POST", "https://store/api/data")
        assert response.status == 503 and response.wire_bytes is None
        counted = network.metrics_of("store").bytes_out
        assert counted == len(wire.encode(response.body)) != self.EXACT

    def test_broker_proxy_measures_what_the_store_declared(self, system):
        """``fetch_via_broker``: the store's release declares its size, the
        broker's copy of it is an ordinary response and is measured."""
        from repro.datastore.query import DataQuery
        from repro.rules.model import ALLOW, Rule
        from tests.conftest import make_segment, released_pieces

        alice = system.add_contributor("alice")
        bob = system.add_consumer("bob")
        alice.upload_segments([make_segment(n=16)])
        alice.flush()
        alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
        bob.add_contributors(["alice"])
        assert len(bob.fetch_via_broker("alice")) == 1  # warm the store's entry

        system.network.reset_metrics()
        proxied = bob.client.post(
            "https://broker/api/data",
            {"Contributor": "alice", "Query": DataQuery().to_json()},
            raw=True,
        )
        exact = len(wire.encode(proxied.body))
        assert proxied.ok and released_pieces(proxied.body) and proxied.wire_bytes is None
        assert system.network.metrics_of("broker").bytes_out == exact
        assert system.network.metrics_of("alice-store").bytes_out == exact
