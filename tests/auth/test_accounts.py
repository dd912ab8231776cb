"""Tests for web-UI accounts."""

import pytest

from repro.auth.accounts import AccountRegistry, ROLE_CONSUMER, ROLE_CONTRIBUTOR
from repro.exceptions import AuthenticationError, ConflictError


class TestRegistration:
    def test_register_and_get(self):
        reg = AccountRegistry()
        account = reg.register("alice", "pw1", ROLE_CONTRIBUTOR)
        assert account.role == ROLE_CONTRIBUTOR
        assert reg.get("alice").username == "alice"
        assert reg.get("nobody") is None

    def test_duplicate_rejected(self):
        reg = AccountRegistry()
        reg.register("alice", "pw", ROLE_CONTRIBUTOR)
        with pytest.raises(ConflictError):
            reg.register("alice", "pw", ROLE_CONSUMER)

    def test_unknown_role_rejected(self):
        reg = AccountRegistry()
        with pytest.raises(ConflictError):
            reg.register("alice", "pw", "admin")

    def test_password_not_stored_in_clear(self):
        reg = AccountRegistry()
        account = reg.register("alice", "hunter2", ROLE_CONTRIBUTOR)
        assert "hunter2" not in account.password_hash
        assert "hunter2" not in account.salt


class TestLogin:
    """The password check a web login runs; no session is kept."""

    def test_good_password_answers_the_account(self):
        reg = AccountRegistry()
        reg.register("alice", "pw", ROLE_CONTRIBUTOR)
        assert reg.check_password("alice", "pw").username == "alice"

    def test_bad_password_rejected(self):
        reg = AccountRegistry()
        reg.register("alice", "pw", ROLE_CONTRIBUTOR)
        with pytest.raises(AuthenticationError):
            reg.check_password("alice", "wrong")

    def test_unknown_user_rejected(self):
        reg = AccountRegistry()
        with pytest.raises(AuthenticationError):
            reg.check_password("ghost", "pw")
