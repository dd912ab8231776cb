"""The centralized-collection baseline (SensorBase / PEIR / CenceMe style).

Section 5.1: "Traditional sensor data collection systems store users' data
in a centralized server.  Although the centralized approach is simple and
straightforward, it has several disadvantages in terms of privacy" — and,
for benchmark C2, in terms of load: every contributor's upload and every
consumer's download transits the one host, so its traffic grows with total
data volume, while SensorSafe's broker only carries control messages.

The service reuses the same storage engine and rule model so that the
comparison isolates the *topology*, not implementation quality.  It also
exhibits the single-point-of-breach property the paper criticizes:
``breach()`` returns every contributor's raw data at once, whereas
compromising one SensorSafe store exposes one owner's data only.
"""

from __future__ import annotations

from typing import Optional

from repro.auth.apikeys import ApiKeyRegistry
from repro.datastore.optimizer import MergePolicy
from repro.datastore.query import DataQuery
from repro.datastore.segment_store import SegmentStore
from repro.exceptions import AuthorizationError, BadRequestError
from repro.net.http import Request, Router
from repro.net.transport import Network
from repro.rules.engine import RuleEngine, encode_release
from repro.rules.parser import rules_from_json
from repro.rules.rulestore import RuleStore
from repro.sensors.packets import decode_upload
from repro.util.idgen import DeterministicRng


class CentralizedService:
    """One server holding every contributor's data."""

    def __init__(
        self,
        network: Network,
        host: str = "central",
        *,
        merge_policy: Optional[MergePolicy] = None,
        seed: int = 0,
    ):
        self.host = host
        self.network = network
        rng = DeterministicRng(seed).fork(f"central:{host}")
        self.store = SegmentStore(host, merge_policy=merge_policy)
        self.rules = RuleStore()
        self.keys = ApiKeyRegistry(f"secret:{host}", rng)
        self.roles: dict[str, str] = {}
        self.router = Router()
        self.router.add("POST", "/api/register", self._h_register)
        self.router.add("POST", "/api/upload_packets", self._h_upload_packets)
        self.router.add("POST", "/api/flush", self._h_flush)
        self.router.add("POST", "/api/query", self._h_query)
        self.router.add("POST", "/api/rules/replace", self._h_rules_replace)
        network.register_host(host, self.router)

    # ------------------------------------------------------------------

    def _h_register(self, request: Request) -> dict:
        name = str(request.body.get("Username", ""))
        role = str(request.body.get("Role", ""))
        if not name or role not in ("contributor", "consumer"):
            raise BadRequestError("registration needs Username and Role")
        self.roles[name] = role
        if role == "contributor":
            self.rules.register(name)
        return {"ApiKey": self.keys.issue(name), "Host": self.host}

    def _principal(self, request: Request) -> str:
        return self.keys.authenticate(request.api_key)

    def _h_upload_packets(self, request: Request) -> dict:
        principal = self._principal(request)
        contributor = str(request.body.get("Contributor", ""))
        if principal != contributor:
            raise AuthorizationError("cannot upload for someone else")
        flush = bool(request.body.get("Flush"))
        packets = decode_upload(request.body.get("Upload"))
        stored = self.store.add_packets(contributor, packets, flush=flush)
        if flush:
            return {"Finalized": len(stored), "Flushed": True}
        return {"Finalized": len(stored)}

    def _h_flush(self, request: Request) -> dict:
        self._principal(request)
        return {"Finalized": len(self.store.flush())}

    def _h_query(self, request: Request) -> dict:
        principal = self._principal(request)
        contributor = str(request.body.get("Contributor", ""))
        query = DataQuery.from_json(request.body.get("Query", {}))
        result = self.store.query(contributor, query)
        if principal == contributor:
            return {"Segments": [s.to_json() for s in result.segments]}
        engine = RuleEngine(self.rules.rules_of(contributor))
        released = engine.evaluate(principal, result.segments)
        return {"Released": encode_release(released)}

    def _h_rules_replace(self, request: Request) -> dict:
        principal = self._principal(request)
        contributor = str(request.body.get("Contributor", ""))
        if principal != contributor:
            raise AuthorizationError("cannot edit someone else's rules")
        rules = rules_from_json(request.body.get("Rules", []))
        self.rules.replace_all(contributor, rules)
        return {"Version": self.rules.version_of(contributor)}

    # ------------------------------------------------------------------

    def breach(self) -> dict:
        """What an attacker compromising this host obtains: everything.

        Returns ``{contributor: sample count}`` across all owners — the
        paper's "when the centralized server is compromised, every user's
        data on the server is breached at the same time".
        """
        exposure: dict = {}
        for contributor in self.store.contributors():
            exposure[contributor] = sum(
                s.n_samples for s in self.store.segments_of(contributor)
            )
        return exposure
