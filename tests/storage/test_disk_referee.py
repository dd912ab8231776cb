"""The disk referee (``tests.conftest.disk_holds``) sees samples in every
form a store writes them, and nowhere they never were.

A per-segment record and a segment batch hold their samples as one raw
``le-f64`` part; a snapshot row holds them as base64 text inside its JSON.
"""

import numpy as np

from repro.datastore.codec import ENCODING_RAW, encode_values
from repro.net.transport import Network
from repro.server.datastore_service import DataStoreService
from repro.storage import records
from repro.storage.recovery import snapshot_path, wal_path
from repro.storage.wal import WriteAheadLog

from tests.conftest import MONDAY, disk_holds, make_segment


def samples(seed, n=24):
    return np.random.default_rng(seed).normal(size=(n, 1))


def store(directory):
    service = DataStoreService("st", Network(), directory=str(directory), durable=True)
    service.register_contributor("alice")
    return service


def test_the_referee_finds_samples_in_every_form_a_store_writes(tmp_path):
    service = store(tmp_path)
    journaled, batched = samples(1), samples(2)
    record = {  # a segment record as a log written before batches holds it
        **make_segment(start_ms=MONDAY, values=journaled).to_json(),
        "Values": encode_values(journaled, ENCODING_RAW),
    }
    records.apply(service, records.OP_SEGMENT, record, journal=True)
    service.store.add_segments(
        [make_segment(start_ms=MONDAY + 3_600_000, values=batched)], flush=True
    )
    service.durability.commit()
    wal = wal_path(str(tmp_path), "st")
    assert disk_holds(tmp_path, journaled) == [(wal, "le-f64")]
    assert disk_holds(tmp_path, batched) == [(wal, "le-f64")]
    assert disk_holds(tmp_path, batched[5:17]) == [(wal, "le-f64")]

    service.checkpoint()  # rows in the snapshot, an empty log
    rows = snapshot_path(str(tmp_path), "st", "segments")
    for run in (journaled, batched, batched[4:9], batched[5:19], batched[7:11]):
        assert disk_holds(tmp_path, run) == [(rows, "base64")]


def test_the_referee_finds_nothing_a_directory_never_held(tmp_path):
    service = store(tmp_path)
    service.store.add_segments([make_segment(values=samples(3))], flush=True)
    service.checkpoint()
    service.store.add_segments(
        [make_segment(start_ms=MONDAY + 3_600_000, values=samples(4))], flush=True
    )
    service.durability.commit()
    assert disk_holds(tmp_path, samples(3)) and disk_holds(tmp_path, samples(4))
    assert disk_holds(tmp_path, samples(5)) == []
    assert disk_holds(tmp_path / "absent", samples(3)) == []


def test_a_refused_batch_is_quarantined_with_its_samples_raw(tmp_path):
    """Recovery keeps a record it cannot install as its wire form, so the
    samples of a batch whose rows overrun its blob are evidence the
    referee finds in the quarantine file, not a crash of the restart."""
    held = samples(6)
    data = records.segment_batch([make_segment(values=held)])
    data["Segments"][0][5] += 1  # one sample more than the blob holds
    wal = WriteAheadLog(wal_path(str(tmp_path), "st"))
    wal.append(records.OP_SEGMENT_BATCH, data)
    wal.close()
    service = DataStoreService("st", Network(), directory=str(tmp_path), durable=True)
    report = service.recovery_report
    assert report.quarantined_records == 1 and service.store.contributors() == []
    (bad,) = report.quarantined_files
    assert (bad, "le-f64") in disk_holds(tmp_path, held)
