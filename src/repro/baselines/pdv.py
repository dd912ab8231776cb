"""No-broker discovery — the Personal Data Vault gap SensorSafe fills.

The paper positions itself against Mun et al.'s Personal Data Vaults:
"while PDV is a single personal data storage, our architecture facilitates
management of multiple individual data stores by having a broker server."
Without a broker, a data consumer who needs contributors with suitable
privacy rules must contact every store and *probe it with real queries* —
paying one network round trip (and a data download) per contributor per
criterion.  Benchmark C5 compares this against the broker's local search
over synced rules.
"""

from __future__ import annotations

from typing import Iterable

from repro.datastore.query import DataQuery
from repro.net.client import HttpClient
from repro.rules.engine import decode_release
from repro.util.timeutil import Interval


class NoBrokerDiscovery:
    """Probe-by-query discovery across stores the consumer knows about.

    The consumer must already hold (host, key) pairs for every store —
    itself a burden the broker's escrow removes — plus a directory of
    contributor names, which in practice means out-of-band coordination.
    """

    def __init__(self, client: HttpClient, directory: dict):
        """``directory``: {contributor: (store host, api key)}."""
        self.client = client
        self.directory = dict(directory)
        self.queries_issued = 0

    def find_sharing(
        self,
        channels: Iterable[str],
        probe_window: Interval,
        *,
        required_labels: Iterable[str] = (),
    ) -> list:
        """Contributors whose stores actually release the asked-for data.

        Issues one real query per contributor and inspects the released
        payload — the only discovery primitive available without synced
        rules.  Accuracy is limited by the probe window: sharing that only
        happens outside it is invisible (the broker's rule-based search
        does not have this blind spot).
        """
        wanted = set(channels)
        needed_labels = set(required_labels)
        matches = []
        for contributor, (host, key) in sorted(self.directory.items()):
            body = self.client.with_key(key).post(
                f"https://{host}/api/query",
                {
                    "Contributor": contributor,
                    "Query": DataQuery(
                        channels=tuple(wanted), time_range=probe_window
                    ).to_json(),
                },
            )
            self.queries_issued += 1
            released = decode_release(body.get("Released"))
            got_channels: set = set()
            got_labels: set = set()
            for item in released:
                got_channels.update(item.channels())
                got_labels.update(item.context_labels)
            if wanted <= got_channels and needed_labels <= got_labels:
                matches.append(contributor)
        return matches
