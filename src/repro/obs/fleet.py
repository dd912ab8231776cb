"""Fleet observability: cluster-wide metrics aggregation and reporting.

The broker periodically scrapes every registered host's ``/api/metrics``
endpoint and merges the results into a **versioned fleet snapshot**:

* one section per host, carrying only the series that host *owns* (its
  ``store=`` / ``host=`` labels) plus role/epoch/LSN enrichment from
  ``/api/health``;
* a ``Fleet`` section for deployment-wide series that no single host owns
  (rule-engine counters, sync, failover, broker search);
* the privacy-SLO report (:mod:`repro.obs.slo`), the slow-query log
  (:mod:`repro.obs.costs`), and the failover manager's trace-stamped
  promotion/rejoin events.

Hosts that stop answering are **tombstoned, not dropped**: the aggregator
remembers each host's last good section and keeps emitting it flagged
``Tombstoned`` so a demoted-then-killed primary stays accounted for after
failover — fleet totals must not silently shrink when a host dies.

Every label and attribute in the snapshot passes the redaction boundary
again on the way out (defense in depth — the per-host scrape already
checked them at instrument creation): host names are allowed, sample
values, coordinates, and context labels are deny-by-default.

Served at ``GET /api/fleet/metrics`` on the broker and rendered by
``python -m repro obs fleet``.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.exceptions import OverloadedError, SensorSafeError
from repro.net.client import HttpClient
from repro.obs.redaction import redact_attributes

#: Label keys whose value attributes a series to one host.
_OWNER_LABEL_KEYS = ("store", "host")

#: Counter names merged into the snapshot's fleet-wide totals.
_TOTAL_COUNTERS = (
    "net_requests_total",
    "net_bytes_in_total",
    "net_bytes_out_total",
    "store_segments_scanned_total",
    "replication_frames_shipped_total",
    "replication_frames_applied_total",
    "query_cost_records_total",
)


def series_owner(labels: dict) -> Optional[str]:
    """The host a metric series belongs to, or ``None`` if fleet-wide."""
    for key in _OWNER_LABEL_KEYS:
        owner = labels.get(key)
        if owner:
            return str(owner)
    return None


def _sanitize_series(entry: dict) -> dict:
    """Re-redact one series dict scraped off the wire (defense in depth)."""
    clean = dict(entry)
    labels = entry.get("Labels")
    if isinstance(labels, dict):
        clean["Labels"] = redact_attributes(labels)
    return clean


def _filter_metrics(metrics: dict, keep) -> dict:
    """Keep only the series for which ``keep(labels)`` is true, sanitized."""
    out: dict = {}
    for kind in ("Counters", "Gauges", "Histograms"):
        table = metrics.get(kind, {}) or {}
        kept: dict = {}
        for name, series in table.items():
            rows = [_sanitize_series(s) for s in series
                    if keep(s.get("Labels", {}) or {})]
            if rows:
                kept[str(name)] = rows
        out[kind] = kept
    return out


def owned_metrics(metrics: dict, host: str) -> dict:
    """The sub-registry a single host owns inside a full scrape."""
    return _filter_metrics(metrics, lambda labels: series_owner(labels) == host)


def unowned_metrics(metrics: dict) -> dict:
    """Deployment-wide series that carry no owning host label."""
    return _filter_metrics(metrics, lambda labels: series_owner(labels) is None)


def merge_counter_totals(sections: dict, fleet: dict) -> dict:
    """Sum selected counters across every host section plus the fleet pool."""
    totals = {name: 0 for name in _TOTAL_COUNTERS}
    tables = [sec.get("Metrics", {}).get("Counters", {}) or {}
              for sec in sections.values()]
    tables.append(fleet.get("Counters", {}) or {})
    for table in tables:
        for name in _TOTAL_COUNTERS:
            for row in table.get(name, ()):
                totals[name] += int(row.get("Value", 0))
    return totals


class FleetAggregator:
    """Broker-side scraper producing versioned fleet snapshots.

    One instance hangs off :class:`~repro.server.broker_service.BrokerService`
    as ``broker.fleet``.  ``scrape()`` pulls ``/api/metrics`` (and
    ``/api/health`` where the broker holds a store key) from the broker
    itself plus every paired store, bumping :attr:`version` each time.
    """

    #: Default sim-ms between periodic scrapes (see :meth:`maybe_scrape`).
    DEFAULT_INTERVAL_MS = 10_000

    def __init__(self, broker, *, interval_ms: int = DEFAULT_INTERVAL_MS):
        self.broker = broker
        self.interval_ms = int(interval_ms)
        self.version = 0
        self.last_snapshot: Optional[dict] = None
        self._last_scrape_ms: Optional[int] = None
        #: host -> last successfully scraped section (tombstone source).
        self._seen: dict[str, dict] = {}
        #: scrape client: no retry policy, so a dead host costs one probe
        #: (and tombstones immediately) instead of a backoff loop.
        self._client = HttpClient(broker.network, name=broker.host)

    # -- plumbing --------------------------------------------------------

    @property
    def _obs(self):
        return self.broker.network.obs

    def _now_ms(self) -> int:
        return int(self.broker.network.clock.now_ms())

    def targets(self) -> list:
        """Hosts to scrape: the broker itself plus every paired store."""
        return [self.broker.host] + sorted(self.broker.store_keys)

    # -- scraping --------------------------------------------------------

    def _health(self, host: str) -> dict:
        key = self.broker.store_keys.get(host)
        if key is None:
            return {"Role": "broker", "Epoch": 0, "Position": None}
        body = self._client.with_key(key).post(f"https://{host}/api/health", {})
        return {
            "Role": str(body.get("Role", "")),
            "Epoch": int(body.get("Epoch", 0)),
            "Position": body.get("Position"),
            "FailClosed": list(body.get("FailClosed", [])),
        }

    def _scrape_host(self, host: str) -> dict:
        body = self._client.get(f"https://{host}/api/metrics")
        metrics = dict(body.get("Metrics", {}) or {})
        if host == self.broker.host:
            section_metrics = owned_metrics(metrics, host)
            fleet_pool = unowned_metrics(metrics)
        else:
            section_metrics = owned_metrics(metrics, host)
            fleet_pool = None
        section = {
            "Reachable": True,
            "Tombstoned": False,
            "Error": "",
            "Metrics": section_metrics,
        }
        section.update(self._health(host))
        return {"section": section, "fleet": fleet_pool}

    def scrape(self) -> dict:
        """Scrape the fleet now; returns (and retains) a fresh snapshot."""
        obs = self._obs
        tracer = obs.tracer
        self.version += 1
        now = self._now_ms()
        self._last_scrape_ms = now
        sections: dict = {}
        fleet_pool: dict = {"Counters": {}, "Gauges": {}, "Histograms": {}}
        unreachable = 0
        with tracer.start_span("fleet.scrape", broker=self.broker.host) as span:
            targets = self.targets()
            for host in targets:
                try:
                    scraped = self._scrape_host(host)
                except OverloadedError:
                    # An admission shed is an *answer*: the host is alive
                    # and browning out by design (scrapes go dark first).
                    # Serve its last good section flagged Overloaded —
                    # never "down", never a scrape error.
                    last = self._seen.get(host)
                    sections[host] = {
                        **(last or {"Metrics": {}}),
                        "Reachable": True,
                        "Overloaded": True,
                    }
                    continue
                except SensorSafeError as exc:
                    unreachable += 1
                    obs.metrics.counter("fleet_scrape_errors_total", host=host).inc()
                    last = self._seen.get(host)
                    sections[host] = {
                        **(last or {"Metrics": {}}),
                        "Reachable": False,
                        "Tombstoned": last is not None,
                        "Error": f"{type(exc).__name__}: {exc}"[:120],
                    }
                    continue
                sections[host] = scraped["section"]
                self._seen[host] = dict(scraped["section"])
                if scraped["fleet"] is not None:
                    fleet_pool = scraped["fleet"]
            # Hosts we once scraped but that left the target list entirely
            # still appear, tombstoned — fleet history must not shrink.
            for host, last in sorted(self._seen.items()):
                if host not in sections:
                    sections[host] = {**last, "Reachable": False,
                                      "Tombstoned": True, "Error": "unregistered"}
            span.set_attributes(hosts=len(sections), unreachable=unreachable,
                                version=self.version)
        obs.metrics.counter("fleet_scrapes_total").inc()
        snapshot = {
            "Version": self.version,
            "ScrapedAtMs": now,
            "Broker": self.broker.host,
            "Hosts": sections,
            "Fleet": fleet_pool,
            "Totals": merge_counter_totals(sections, fleet_pool),
            "Slo": obs.slo.report(at_ms=now),
            "SlowQueries": obs.costs.slow_queries(limit=10),
            "FailoverEvents": [dict(e) for e in self.broker.failover.events],
            "Shards": self._shard_section(),
        }
        self.last_snapshot = snapshot
        return snapshot

    def _shard_section(self) -> dict:
        """Routing-table + rebalance summary for the fleet snapshot."""
        rebalancer = self.broker.rebalancer
        return {
            "Directory": self.broker.directory.status(),
            "MigrationEvents": [dict(e) for e in rebalancer.events],
            "ActiveMigrations": rebalancer.active,
        }

    def maybe_scrape(self) -> Optional[dict]:
        """Scrape iff the configured interval elapsed (heartbeat-driven).

        No-ops entirely when telemetry is disabled: a telemetry-off
        deployment must not pay scrape traffic (the C15 baseline).
        """
        if not self._obs.enabled:
            return None
        now = self._now_ms()
        if (self._last_scrape_ms is not None
                and now - self._last_scrape_ms < self.interval_ms):
            return None
        return self.scrape()


# ----------------------------------------------------------------------
# Rendering and the `repro obs fleet` CLI
# ----------------------------------------------------------------------


def _fmt_count(value) -> str:
    return f"{int(value):,}"


def _host_counter(section: dict, name: str) -> int:
    rows = section.get("Metrics", {}).get("Counters", {}).get(name, ())
    return sum(int(r.get("Value", 0)) for r in rows)


def render_fleet(snapshot: dict) -> str:
    """Human-readable rendering of one fleet snapshot."""
    hosts = snapshot.get("Hosts", {})
    reachable = sum(1 for s in hosts.values() if s.get("Reachable"))
    tombstoned = sum(1 for s in hosts.values() if s.get("Tombstoned"))
    lines = [
        f"fleet snapshot v{snapshot.get('Version')} @ "
        f"{snapshot.get('ScrapedAtMs')} ms — broker {snapshot.get('Broker')!r}, "
        f"{len(hosts)} hosts ({reachable} reachable, {tombstoned} tombstoned)",
        "",
        f"{'HOST':<18} {'ROLE':<8} {'EPOCH':>5} {'STATE':<10} "
        f"{'REQS':>8} {'BYTES_IN':>12} {'POSITION':>8}",
    ]
    for host in sorted(hosts):
        section = hosts[host]
        position = section.get("Position")
        state = ("tombstone" if section.get("Tombstoned")
                 else "busy" if section.get("Overloaded")
                 else "up" if section.get("Reachable") else "down")
        lines.append(
            f"{host:<18} {section.get('Role', '?'):<8} "
            f"{section.get('Epoch', 0):>5} {state:<10} "
            f"{_fmt_count(_host_counter(section, 'net_requests_total')):>8} "
            f"{_fmt_count(_host_counter(section, 'net_bytes_in_total')):>12} "
            f"{'-' if position is None else '{Epoch}/{Lsn}'.format(**position):>8}"
        )
    totals = snapshot.get("Totals", {})
    if totals:
        lines += ["", "fleet totals:"]
        for name in sorted(totals):
            lines.append(f"  {name:<36} {_fmt_count(totals[name]):>12}")
    slo = snapshot.get("Slo", {})
    if slo:
        lines += ["", "privacy SLOs:"]
        for key in ("RevocationLatencyMs", "FailClosedDwellMs",
                    "FailoverDetectionMs"):
            summary = slo.get(key, {})
            lines.append(
                f"  {key:<22} count={summary.get('Count', 0):<5} "
                f"p50={summary.get('P50', 0):<8.0f} p95={summary.get('P95', 0):<8.0f} "
                f"p99={summary.get('P99', 0):<8.0f} breaches={summary.get('Breaches', 0)} "
                f"burn={summary.get('BurnRate', 0):<6} {summary.get('Status', 'ok')}"
            )
        lag = slo.get("ReplicationLagFrames", {})
        lines.append(
            f"  {'ReplicationLagFrames':<22} worst={lag.get('Worst', 0)} "
            f"threshold={lag.get('Threshold', 0)} "
            f"breaching={lag.get('Breaching', 0)} {lag.get('Status', 'ok')}"
        )
        goodput = slo.get("Goodput", {})
        lines.append(
            f"  {'Goodput':<22} served={_fmt_count(goodput.get('Served', 0))} "
            f"shed={_fmt_count(goodput.get('Shed', 0))} "
            f"ratio={goodput.get('Goodput', 1.0):.4f} "
            f"floor={goodput.get('Threshold', 0)} "
            f"burn={goodput.get('BurnRate', 0)} {goodput.get('Status', 'ok')}"
        )
        open_rev = slo.get("OpenRevocations", [])
        if open_rev:
            lines.append("  open revocations:")
            for rev in open_rev:
                lines.append(
                    f"    {rev['Contributor']} age={rev['AgeMs']}ms "
                    f"stale_releases={rev['StaleReleases']}"
                )
        open_fc = slo.get("OpenFailClosed", [])
        if open_fc:
            lines.append("  open fail-closed dwells:")
            for item in open_fc:
                lines.append(
                    f"    {item['Contributor']}@{item['Store']} "
                    f"dwell={item['DwellMs']}ms"
                )
    slow = snapshot.get("SlowQueries", [])
    if slow:
        lines += ["", f"slow queries (top {len(slow)}):"]
        for entry in slow:
            lines.append(
                f"  {entry.get('DurationUs', 0):>10.1f}us "
                f"{entry.get('Endpoint', '?'):<15} {entry.get('Store', '?'):<14} "
                f"{entry.get('Consumer', '?')}->{entry.get('Contributor', '?')} "
                f"scanned={entry.get('SegmentsScanned', 0)} "
                f"released={entry.get('SegmentsReleased', 0)} "
                f"trace={entry.get('TraceId', '')}"
            )
    events = snapshot.get("FailoverEvents", [])
    if events:
        lines += ["", "failover events:"]
        for event in events:
            lines.append(
                f"  {event.get('Event', '?'):<10} set={event.get('Set', '?')} "
                f"host={event.get('Host', '?')} epoch={event.get('Epoch', 0)} "
                f"at={event.get('AtMs', 0)}ms trace={event.get('TraceId', '')}"
            )
    shards = snapshot.get("Shards", {})
    directory = shards.get("Directory", {})
    if directory.get("Shards"):
        lines += [
            "",
            f"shards (routing epoch {directory.get('Epoch', 0)}, "
            f"{directory.get('Contributors', 0)} contributors, "
            f"{directory.get('OffRing', 0)} off-ring, "
            f"{shards.get('ActiveMigrations', 0)} migrating):",
        ]
        for host, count in sorted(directory["Shards"].items()):
            lines.append(f"  {host:<18} {_fmt_count(count):>8} contributors")
        for event in shards.get("MigrationEvents", []):
            lines.append(
                f"  migrate {event.get('Source', '?')} -> {event.get('Dest', '?')} "
                f"moved={event.get('Moved', 0)} "
                f"records={event.get('RecordsShipped', 0)} "
                f"fail_closed={len(event.get('FailClosed', []))} "
                f"epoch={event.get('RoutingEpoch', 0)} "
                f"trace={event.get('TraceId', '')}"
            )
    return "\n".join(lines)


def run_fleet_scenario(*, drill: bool = False, seed: int = 7):
    """Build a replicated deployment, drive load, return (system, snapshot).

    The scenario mirrors the C12/C15 shape: one replicated store
    (semi-sync, two replicas), uploads + consumer queries, one rule
    revocation, and — with ``drill=True`` — a primary kill plus
    broker-driven failover, so the rendered report exercises tombstoning,
    SLO settlement, and the slow-query log in one run.  The scratch
    directory is left to the OS tempdir reaper.
    """
    import tempfile

    import numpy as np

    from repro.core.system import SensorSafeSystem
    from repro.datastore.wavesegment import WaveSegment
    from repro.rules.model import ALLOW, Rule
    from repro.util.geo import LatLon
    from repro.util.timeutil import timestamp_ms

    monday = timestamp_ms(2011, 2, 7)

    def segment(i, n=32):
        return WaveSegment(
            contributor="alice",
            channels=("ECG",),
            start_ms=monday + i * 3_600_000,
            interval_ms=1000,
            values=np.arange(n, dtype=float).reshape(n, 1),
            location=LatLon(34.0689, -118.4452),
            context={"Activity": "Still", "Stress": "NotStressed"},
        )

    workdir = tempfile.mkdtemp(prefix="sensorsafe-fleet-")
    system = SensorSafeSystem(seed=seed)
    primary = system.create_replicated_store("alice-store", directory=workdir, n_replicas=2)
    alice = system.add_contributor("alice", store=primary)
    bob = system.add_consumer("bob")
    bob.add_contributors(["alice"])
    alice.add_rule(Rule(consumers=("bob",), action=ALLOW))
    for i in range(6):
        alice.upload_segments([segment(i)])
        alice.flush()
        system.clock.advance(2_000)
        system.broker.failover.heartbeat()
    for _ in range(6):
        bob.fetch("alice")
        system.clock.advance(500)
    # A revocation: deny-by-default again, then re-allow — the SLO tracker
    # settles one revocation-latency sample per mutation.
    alice.replace_rules([])
    system.clock.advance(700)
    bob.fetch("alice")
    alice.replace_rules([Rule(consumers=("bob",), action=ALLOW)])
    system.clock.advance(300)
    bob.fetch("alice")
    if drill:
        system.network.unregister_host("alice-store")
        for _ in range(system.broker.failover.miss_threshold + 1):
            system.clock.advance(2_000)
            system.broker.failover.heartbeat()
        system.repoint_contributor("alice")
        bob.fetch("alice")
    snapshot = system.broker.fleet.scrape()
    return system, snapshot


def main(argv=None) -> int:
    """Entry point for ``python -m repro obs fleet``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro obs fleet",
        description="Scrape and render a fleet telemetry snapshot "
        "from a simulated replicated deployment.",
    )
    parser.add_argument("--drill", action="store_true",
                        help="kill the primary and fail over before scraping")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the raw snapshot JSON to this file")
    args = parser.parse_args(argv)
    _, snapshot = run_fleet_scenario(drill=args.drill, seed=args.seed)
    print(render_fleet(snapshot))
    if args.json_out:
        import os

        directory = os.path.dirname(args.json_out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        print(f"\nwrote fleet snapshot to {args.json_out}")
    return 0
