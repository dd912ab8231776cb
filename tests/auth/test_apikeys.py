"""Tests for API key issuance, rotation, and escrow."""

import pytest

from repro.auth.apikeys import ApiKeyRegistry, KeyEscrow
from repro.exceptions import AuthenticationError


class TestRegistry:
    def test_issue_and_authenticate(self):
        reg = ApiKeyRegistry("secret")
        key = reg.issue("alice")
        assert reg.authenticate(key) == "alice"
        assert reg.key_of("alice") == key

    def test_keys_are_sha_shaped_and_unique(self):
        reg = ApiKeyRegistry("secret")
        keys = {reg.issue(f"user{i}") for i in range(20)}
        assert len(keys) == 20
        assert all(len(k) == 64 for k in keys)

    def test_missing_key_rejected(self):
        reg = ApiKeyRegistry("secret")
        with pytest.raises(AuthenticationError):
            reg.authenticate(None)

    def test_invalid_key_rejected(self):
        reg = ApiKeyRegistry("secret")
        reg.issue("alice")
        with pytest.raises(AuthenticationError):
            reg.authenticate("f" * 64)

    def test_reissue_rotates(self):
        reg = ApiKeyRegistry("secret")
        old = reg.issue("alice")
        new = reg.issue("alice")
        assert old != new
        assert reg.authenticate(new) == "alice"
        with pytest.raises(AuthenticationError):
            reg.authenticate(old)

    def test_distinct_servers_distinct_keys(self):
        a = ApiKeyRegistry("secret-a")
        b = ApiKeyRegistry("secret-b")
        assert a.issue("alice") != b.issue("alice")


class TestEscrow:
    def test_ring_accumulates(self):
        escrow = KeyEscrow()
        escrow.store_key("bob", "store1", "k1")
        escrow.store_key("bob", "store2", "k2")
        assert escrow.ring_of("bob") == {"store1": "k1", "store2": "k2"}
        assert escrow.key_for("bob", "store1") == "k1"
        assert escrow.key_for("bob", "store3") is None

    def test_rings_are_per_consumer(self):
        escrow = KeyEscrow()
        escrow.store_key("bob", "store1", "k1")
        assert escrow.ring_of("carol") == {}
