"""Web-UI accounts: username/password login and sessions.

"Accesses to web user interfaces are authenticated by a login system using
a username and a password" (Section 5.4).  Passwords are stored as salted
SHA-256 digests; successful login returns an opaque session token the web
UI presents on subsequent page requests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import AuthenticationError, ConflictError
from repro.util.idgen import DeterministicRng

ROLE_CONTRIBUTOR = "contributor"
ROLE_CONSUMER = "consumer"
_ROLES = (ROLE_CONTRIBUTOR, ROLE_CONSUMER)


def _hash_password(salt: str, password: str) -> str:
    return hashlib.sha256(f"{salt}\x1f{password}".encode("utf-8")).hexdigest()


@dataclass
class Principal:
    """One registered account."""

    username: str
    role: str
    salt: str
    password_hash: str


class AccountRegistry:
    """Accounts and login sessions for one server."""

    def __init__(self, rng: Optional[DeterministicRng] = None):
        self._rng = rng or DeterministicRng(0)
        self._accounts: dict[str, Principal] = {}
        self._sessions: dict[str, str] = {}  # token -> username

    def register(self, username: str, password: str, role: str) -> Principal:
        if role not in _ROLES:
            raise ConflictError(f"unknown role {role!r}; expected one of {_ROLES}")
        if username in self._accounts:
            raise ConflictError(f"username already registered: {username!r}")
        salt = f"salt-{self._rng.next_nonce()}"
        account = Principal(
            username=username,
            role=role,
            salt=salt,
            password_hash=_hash_password(salt, password),
        )
        self._accounts[username] = account
        return account

    def get(self, username: str) -> Optional[Principal]:
        return self._accounts.get(username)

    def _require(self, username: str) -> Principal:
        account = self._accounts.get(username)
        if account is None:
            raise AuthenticationError(f"unknown account: {username!r}")
        return account

    def login(self, username: str, password: str) -> str:
        """Validate credentials and open a session; returns the token."""
        account = self._require(username)
        if _hash_password(account.salt, password) != account.password_hash:
            raise AuthenticationError("bad username or password")
        token = hashlib.sha256(
            f"session\x1f{username}\x1f{self._rng.next_nonce()}".encode("utf-8")
        ).hexdigest()
        self._sessions[token] = username
        return token

    def session_user(self, token: Optional[str]) -> Principal:
        """Resolve a session token or raise 401."""
        if token is None:
            raise AuthenticationError("missing session token")
        username = self._sessions.get(token)
        if username is None:
            raise AuthenticationError("invalid or expired session token")
        return self._require(username)

    def logout(self, token: str) -> bool:
        return self._sessions.pop(token, None) is not None
