"""C2 — "The broker is not a performance bottleneck" (Section 4).

Claim: "sensor data are directly transferred from each remote data store
to data consumers", so broker load does not grow with data volume.

Workload: sweep the contributor count; each contributor uploads the same
amount of ECG data and the consumer downloads everything.  Measured: the
broker's bytes, the stores' aggregate bytes, and — as the contrast — a
centralized deployment where one host carries every upload and download.
Expected shape: broker traffic stays flat (control messages only) while
store and centralized traffic grow linearly; the proxy path (broker web
UI) shows what the broker *would* carry if it sat on the data path.
"""

from repro.baselines.centralized import CentralizedService
from repro.core import SensorSafeSystem
from repro.datastore.query import DataQuery
from repro.net.client import HttpClient
from repro.net.transport import Network
from repro.rules.model import ALLOW, Rule
from repro.rules.parser import rules_to_json
from repro.sensors.packets import encode_upload

from conftest import report_table
from helpers import ecg_packets

FLEET_SIZES = (2, 5, 10)
HOURS_PER_CONTRIBUTOR = 0.1  # 2,880 ECG samples each


def _upload_packets(client, url, contributor, packets, batch=200):
    for offset in range(0, len(packets), batch):
        chunk = packets[offset : offset + batch]
        client.post(
            url,
            {"Contributor": contributor, "Upload": encode_upload(chunk)},
        )


def distributed_run(n_contributors):
    system = SensorSafeSystem(seed=n_contributors)
    packets = ecg_packets(HOURS_PER_CONTRIBUTOR)
    names = []
    for i in range(n_contributors):
        name = f"c{i:02d}"
        contributor = system.add_contributor(name)
        contributor.add_rule(Rule(consumers=("bob",), action=ALLOW))
        _upload_packets(
            contributor.client,
            f"https://{contributor.store_host}/api/upload_packets",
            name,
            packets,
        )
        contributor.client.post(
            f"https://{contributor.store_host}/api/flush", {"Contributor": name}
        )
        names.append(name)
    bob = system.add_consumer("bob")
    bob.add_contributors(names)
    samples = 0
    for name in names:
        samples += sum(r.n_samples for r in bob.fetch(name, DataQuery()))
    broker_bytes = system.network.metrics_of("broker").total_bytes()
    store_bytes = sum(
        system.network.metrics_of(h).total_bytes()
        for h in system.network.hosts()
        if h.endswith("-store")
    )
    return broker_bytes, store_bytes, samples


def centralized_run(n_contributors):
    network = Network()
    central = CentralizedService(network)
    packets = ecg_packets(HOURS_PER_CONTRIBUTOR)
    clients = {}
    for i in range(n_contributors):
        name = f"c{i:02d}"
        key = network.request(
            "POST", "https://central/api/register", {"Username": name, "Role": "contributor"}
        ).body["ApiKey"]
        client = HttpClient(network, name, key)
        _upload_packets(client, "https://central/api/upload_packets", name, packets)
        client.post("https://central/api/flush", {})
        client.post(
            "https://central/api/rules/replace",
            {
                "Contributor": name,
                "Rules": rules_to_json([Rule(consumers=("bob",), action=ALLOW)]),
            },
        )
        clients[name] = client
    bob_key = network.request(
        "POST", "https://central/api/register", {"Username": "bob", "Role": "consumer"}
    ).body["ApiKey"]
    bob = HttpClient(network, "bob", bob_key)
    for name in clients:
        bob.post("https://central/api/query", {"Contributor": name, "Query": {}})
    return network.metrics_of("central").total_bytes()


def test_c2_broker_vs_central_scaling(benchmark):
    rows = []
    broker_series, central_series = [], []
    for n in FLEET_SIZES:
        broker_bytes, store_bytes, samples = distributed_run(n)
        central_bytes = centralized_run(n)
        broker_series.append(broker_bytes)
        central_series.append(central_bytes)
        rows.append(
            [
                n,
                f"{samples:,}",
                f"{broker_bytes:,}",
                f"{store_bytes:,}",
                f"{central_bytes:,}",
            ]
        )
    report_table(
        "C2 — Traffic vs fleet size (bytes; uploads + full downloads)",
        ["Contributors", "Samples moved", "Broker", "All stores (sum)", "Centralized host"],
        rows,
        notes="broker carries control messages only; the centralized host carries "
        "every byte and scales linearly with the fleet",
    )

    # Shape: broker growth is control-plane-sized; central growth tracks data.
    assert central_series[-1] > 20 * broker_series[-1]
    broker_growth = broker_series[-1] / max(1, broker_series[0])
    central_growth = central_series[-1] / max(1, central_series[0])
    assert central_growth > 3.0  # ~linear in contributors (5x fleet)
    assert broker_series[-1] < central_series[-1] / 10

    # Timed: one direct store fetch (the data-path primitive).
    system = SensorSafeSystem(seed=99)
    contributor = system.add_contributor("solo")
    contributor.add_rule(Rule(consumers=("bob",), action=ALLOW))
    _upload_packets(
        contributor.client,
        "https://solo-store/api/upload_packets",
        "solo",
        ecg_packets(HOURS_PER_CONTRIBUTOR),
    )
    contributor.client.post("https://solo-store/api/flush", {"Contributor": "solo"})
    bob = system.add_consumer("bob")
    bob.add_contributors(["solo"])
    benchmark(lambda: bob.fetch("solo", DataQuery()))


def test_c2_proxy_path_puts_broker_on_data_path(benchmark):
    """The broker's web-UI proxy is the exception that proves the rule:
    routing data through it makes broker traffic scale with payload."""
    system = SensorSafeSystem(seed=5)
    contributor = system.add_contributor("solo")
    contributor.add_rule(Rule(consumers=("bob",), action=ALLOW))
    _upload_packets(
        contributor.client,
        "https://solo-store/api/upload_packets",
        "solo",
        ecg_packets(HOURS_PER_CONTRIBUTOR),
    )
    contributor.client.post("https://solo-store/api/flush", {"Contributor": "solo"})
    bob = system.add_consumer("bob")
    bob.add_contributors(["solo"])

    system.network.reset_metrics()
    bob.fetch("solo", DataQuery())
    direct_broker = system.network.metrics_of("broker").total_bytes()

    system.network.reset_metrics()
    benchmark.pedantic(
        lambda: bob.fetch_via_broker("solo", DataQuery()), rounds=1, iterations=1
    )
    proxy_broker = system.network.metrics_of("broker").total_bytes()

    report_table(
        "C2 — Direct path vs broker-proxy path (broker bytes for one full download)",
        ["Path", "Broker bytes"],
        [["direct (API consumers)", f"{direct_broker:,}"], ["proxied (web UI)", f"{proxy_broker:,}"]],
    )
    assert direct_broker == 0
    # ~23 KB of blob plus envelope transits the broker on the proxy path.
    assert proxy_broker > 10_000

    from helpers import emit_obs_snapshot

    emit_obs_snapshot("c2_proxy_path", system)
