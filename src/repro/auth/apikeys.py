"""API key issuance, validation, and escrow.

Every server (each remote data store and the broker) runs its own
:class:`ApiKeyRegistry` seeded with a server secret; keys are SHA-256
digests over the secret, the principal, and a nonce, so they are
unforgeable without the secret and never repeat.

A data consumer ends up with "many API keys for multiple remote data
stores ... the registration process is automatically handled by the broker
and the list of API keys are stored on the broker" — :class:`KeyEscrow`
is that per-consumer key ring.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import AuthenticationError
from repro.util.idgen import DeterministicRng, api_key


class ApiKeyRegistry:
    """Issues and validates API keys for one server."""

    def __init__(self, server_secret: str, rng: Optional[DeterministicRng] = None):
        self._secret = server_secret
        self._rng = rng or DeterministicRng(0)
        self._keys: dict[str, str] = {}  # key -> principal
        self._by_principal: dict[str, str] = {}  # principal -> current key

    def issue(self, principal: str) -> str:
        """Issue (or re-issue) the key for a principal.

        Re-issuing rotates: the previous key is revoked, matching how a
        real service would respond to a leaked key.
        """
        old = self._by_principal.get(principal)
        if old is not None:
            del self._keys[old]
        key = api_key(self._secret, principal, self._rng.next_nonce())
        self._keys[key] = principal
        self._by_principal[principal] = key
        return key

    def revoke(self, principal) -> None:
        """Revoke ``principal``'s key, if it holds one."""
        self._keys.pop(self._by_principal.pop(principal, None), None)

    def principals(self) -> list:
        """Every principal holding a key."""
        return list(self._by_principal)

    def key_of(self, principal: str) -> Optional[str]:
        return self._by_principal.get(principal)

    def authenticate(self, key: Optional[str]) -> str:
        """Return the principal owning ``key`` or raise 401."""
        if key is None:
            raise AuthenticationError("missing API key")
        principal = self._keys.get(key)
        if principal is None:
            raise AuthenticationError("invalid API key")
        return principal


class KeyEscrow:
    """Per-consumer ring of (store host -> API key), held by the broker."""

    def __init__(self) -> None:
        self._rings: dict[str, dict] = {}  # consumer -> {host: key}

    def store_key(self, consumer: str, host: str, key: str) -> None:
        self._rings.setdefault(consumer, {})[host] = key

    def key_for(self, consumer: str, host: str) -> Optional[str]:
        return self._rings.get(consumer, {}).get(host)

    def ring_of(self, consumer: str) -> dict:
        return dict(self._rings.get(consumer, {}))

    def consumers_for(self, host: str) -> list:
        """Consumers holding an escrowed key at ``host``, sorted.

        Failover uses this to find who must be enrolled at a newly
        promoted store: everyone who could reach the old primary.
        """
        return sorted(c for c, ring in self._rings.items() if host in ring)
