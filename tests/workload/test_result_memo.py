"""Each result batch is generated once per run; stream words are cached
per :class:`RandomStreams` instance."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.core import S3aSim, SimulationConfig
from repro.sim import RandomStreams
from repro.sim.rng import _path_entropy
from repro.workload import ResultGenerator


def blake2_words(path):
    """The BLAKE2 words of ``path`` computed from scratch."""
    words = []
    for element in path:
        digest = hashlib.blake2b(repr(element).encode(), digest_size=8).digest()
        words += [
            int.from_bytes(digest[:4], "little"),
            int.from_bytes(digest[4:], "little"),
        ]
    return tuple(words)


class TestBatchMemo:
    def test_checked_run_generates_each_batch_once(self, monkeypatch):
        calls = Counter()
        batch = ResultGenerator.batch

        def spy(self, query_id, fragment_id):
            calls[(query_id, fragment_id)] += 1
            return batch(self, query_id, fragment_id)

        monkeypatch.setattr(ResultGenerator, "batch", spy)
        cfg = SimulationConfig(nprocs=8, nqueries=3, nfragments=8, check=True)
        sim = S3aSim(cfg)
        result = sim.run()
        assert result.file_stats.complete
        results = sim.workload.results
        non_empty = {
            (q, f)
            for q in range(3)
            for f in range(8)
            if results.fragment_counts(q)[f] > 0
        }
        assert set(calls) == non_empty
        assert set(calls.values()) == {1}

    def test_query_total_bytes_matches_a_fresh_generator(self):
        cfg = SimulationConfig(nprocs=4, nqueries=3, nfragments=6)
        used = cfg.build_workload().results
        for f in range(0, 6, 2):  # warm part of the memo
            used.batch(1, f)
        fresh = cfg.build_workload().results
        for q in range(3):
            assert used.query_total_bytes(q) == fresh.query_total_bytes(q)
            assert used.query_total_bytes(q) == sum(
                cfg.build_workload().results.batch(q, f).total_bytes
                for f in range(6)
            )

    @pytest.mark.parametrize("fragment_id", [-1, 6])
    def test_fragment_out_of_range_is_rejected(self, fragment_id):
        cfg = SimulationConfig(nprocs=4, nqueries=3, nfragments=6)
        results = cfg.build_workload().results
        with pytest.raises(ValueError):
            results.batch(0, fragment_id)


class TestPathEntropyCache:
    PATHS = [
        (0,), (1, 2), (-1,), (-7, 3), (2**40, -(2**40)), ("batch", 3, 5),
        ("", "count"), ("assign", -2), ("results",),
    ]

    @pytest.mark.parametrize("path", PATHS)
    def test_cached_words_equal_blake2_words(self, path):
        cache = {}
        assert _path_entropy(path, cache) == blake2_words(path)
        # Second lookup is served from the cache and still agrees.
        assert _path_entropy(path, cache) == blake2_words(path)
        assert _path_entropy(path) == blake2_words(path)

    def test_int_and_str_of_one_value_stay_apart(self):
        cache = {}
        assert _path_entropy((5, "5"), cache) == blake2_words((5, "5"))
        assert _path_entropy(("5", 5), cache) == blake2_words(("5", 5))

    def test_other_types_bypass_the_cache(self):
        # np.int64(5) == 5 but their reprs, and so their words, differ.
        cache = {}
        path = (5, np.int64(5), 0.0, -0.0)
        assert _path_entropy(path, cache) == blake2_words(path)
        assert set(cache) == {5}

    def test_instances_do_not_share_the_cache(self):
        a, b = RandomStreams(3), RandomStreams(3)
        a.stream("batch", 1, 2)
        assert set(a._words) == {"batch", 1, 2}
        assert b._words == {}
        assert a._words is not b._words
        assert (
            a.stream("x", 4).random(4).tolist()
            == b.stream("x", 4).random(4).tolist()
        )
