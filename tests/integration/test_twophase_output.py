"""WW-Coll writes the same file whatever schedule its exchange uses.

The two-phase exchange only decides *when* pieces reach their
aggregators; the aggregators still write the same coalesced runs.  These
pins (captured with the dense ring-shifted exchange) hold the output file,
its request count and its byte content fixed, so an exchange change can
move simulated timing only.
"""

import hashlib

import pytest

from repro.core import S3aSim, SimulationConfig

#: config -> (file bytes, extents, PVFS requests, sha256 prefix of the file)
PINS = {
    (4, 3, 6, False): (28_589_322, 1, 164, "af1fc007e80f1b50"),
    (16, 4, 16, True): (30_254_996, 1, 521, "83a500f1de4e6a44"),
}


@pytest.mark.parametrize("key", sorted(PINS))
def test_ww_coll_output_is_pinned(key):
    nprocs, nqueries, nfragments, query_sync = key
    nbytes, nextents, requests, digest = PINS[key]
    app = S3aSim(
        SimulationConfig(
            strategy="ww-coll",
            nprocs=nprocs,
            nqueries=nqueries,
            nfragments=nfragments,
            query_sync=query_sync,
            store_data=True,
        )
    )
    result = app.run()
    stats = result.file_stats
    assert (stats.total_bytes, stats.nextents, stats.dense) == (nbytes, nextents, True)
    assert result.server_stats["requests"] == requests
    assert result.server_stats["bytes_written"] == nbytes
    bytestore = app.fh.file.bytestore
    image = bytestore.read(0, nbytes)
    assert hashlib.sha256(image).hexdigest()[:16] == digest
