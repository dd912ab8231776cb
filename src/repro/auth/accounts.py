"""Web-UI passwords: salted SHA-256 digests, and the broker's accounts.

"Accesses to web user interfaces are authenticated by a login system using
a username and a password" (Section 5.4).  A data store keeps a
contributor's digest on its role record (:func:`credential`); the broker
keeps its consumers' in an :class:`AccountRegistry`.  Neither keeps a
session: a web login answers the principal's API key as the page token.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import AuthenticationError, ConflictError
from repro.util.idgen import DeterministicRng

ROLE_CONTRIBUTOR = "contributor"
ROLE_CONSUMER = "consumer"
_ROLES = (ROLE_CONTRIBUTOR, ROLE_CONSUMER)


def _hash_password(salt: str, password: str) -> str:
    return hashlib.sha256(f"{salt}\x1f{password}".encode("utf-8")).hexdigest()


def credential(password: str, rng: DeterministicRng) -> dict:
    """``{"Salt", "PasswordHash"}`` for ``password``, under a fresh salt."""
    salt = f"salt-{rng.next_nonce()}"
    return {"Salt": salt, "PasswordHash": _hash_password(salt, password)}


def password_matches(salt: str, password_hash: str, password: str) -> bool:
    """Does ``password`` hash, under ``salt``, to ``password_hash``?"""
    return hmac.compare_digest(_hash_password(salt, password), password_hash)


@dataclass
class Principal:
    """One registered account."""

    username: str
    role: str
    salt: str
    password_hash: str


class AccountRegistry:
    """Password accounts for one server."""

    def __init__(self, rng: Optional[DeterministicRng] = None):
        self._rng = rng or DeterministicRng(0)
        self._accounts: dict[str, Principal] = {}

    def register(self, username: str, password: str, role: str) -> Principal:
        if role not in _ROLES:
            raise ConflictError(f"unknown role {role!r}; expected one of {_ROLES}")
        if username in self._accounts:
            raise ConflictError(f"username already registered: {username!r}")
        salted = credential(password, self._rng)
        account = Principal(username, role, salted["Salt"], salted["PasswordHash"])
        self._accounts[username] = account
        return account

    def get(self, username: str) -> Optional[Principal]:
        return self._accounts.get(username)

    def check_password(self, username: str, password: str) -> Principal:
        """The account, or 401 for an unknown name or a wrong password alike."""
        account = self._accounts.get(username)
        if account is None or not password_matches(
            account.salt, account.password_hash, password
        ):
            raise AuthenticationError("bad username or password")
        return account
