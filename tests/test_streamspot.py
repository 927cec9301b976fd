"""StreamSpot-stage parity tests on the reference's 12-edge fixture
(FIXTURES.md §2; expected values hand-computed from the F1/H1/H4 semantics
documented in SURVEY.md §2.3-2.4)."""

import os

import numpy as np
import pytest

from sbustreamspot_core_ray.functions.hashing import hash_family
from sbustreamspot_core_ray.sources.edges import (
    streamspot_fixture_edges,
    streamspot_fixture_table,
)
from sbustreamspot_core_ray.stages.shingle import (
    construct_shingle_vectors,
    get_string_chunks,
    shingles_for_group,
)
from sbustreamspot_core_ray.stages.sketch import (
    construct_streamhash_sketches,
    pack_sketch,
    streamhash_similarity_np,
)
from .test_hashing import hashmulti_scalar

# hand-derived shingles (K=1): per source node the string is
# ' ' + src_type + concat(e_type + dst_type) over out-edges in seq order
EXPECTED_C10 = {
    0: {" atb": 1},
    1: {" atb": 1, " ptb": 1, " btqtr": 1},
    2: {" atb": 1, " ptb": 1, " btqtr": 1},
    3: {" atb": 1, " btptq": 1},
}
EXPECTED_C4 = {
    0: {" atb": 1},
    1: {" atb": 1, " ptb": 1, " btq": 1, "tr": 1},
    2: {" atb": 1, " ptb": 1, " btq": 1, "tr": 1},
    3: {" atb": 1, " btp": 1, "tq": 1},
}


def test_get_string_chunks():
    assert get_string_chunks(" btqtr", 4) == [" btq", "tr"]
    assert get_string_chunks(" atb", 10) == [" atb"]
    assert get_string_chunks("", 4) == []


@pytest.mark.parametrize("c,expected", [(10, EXPECTED_C10), (4, EXPECTED_C4)])
def test_shingles_fixture(c, expected):
    df = streamspot_fixture_table().to_pandas()
    for gid, want in expected.items():
        got = shingles_for_group(df[df["gid"] == gid], c)
        assert got == want, (gid, got, want)


def test_shingle_dataset_pipeline():
    ds = construct_shingle_vectors(streamspot_fixture_edges(), chunk_length=10)
    out = ds.to_pandas()
    got = {
        gid: dict(zip(g["shingle"], g["count"]))
        for gid, g in out.groupby("gid")
    }
    assert got == EXPECTED_C10
    # identical graphs -> identical shingle vectors (gids 1 and 2)
    assert got[1] == got[2]


def test_streamhash_sketch_matches_definition():
    """Pipeline projection == direct H4 definition computed with scalar H1."""
    c = 10
    shingles = construct_shingle_vectors(streamspot_fixture_edges(), c)
    sk = construct_streamhash_sketches(shingles, c, l=64, seed=23).to_pandas()
    H = hash_family(c, l=64, seed=23)
    for _, row in sk.iterrows():
        want = np.zeros(64, np.int64)
        for shingle, count in EXPECTED_C10[row["gid"]].items():
            for i in range(64):
                want[i] += count * hashmulti_scalar(shingle, H[i])
        got = np.asarray(row["projection"])
        assert (got == want).all(), row["gid"]
        assert (np.frombuffer(row["sketch"], np.uint8) == pack_sketch(want)).all()
    # identical graphs produce identical sketches
    m = {r["gid"]: r["sketch"] for _, r in sk.iterrows()}
    assert m[1] == m[2]
    s1 = np.frombuffer(m[1], np.uint8)
    s2 = np.frombuffer(m[2], np.uint8)
    assert streamhash_similarity_np(s1, s2, 64) == 1.0


def test_lsh_clusters_group_identical_graphs():
    c = 10
    shingles = construct_shingle_vectors(streamspot_fixture_edges(), c)
    sketches = construct_streamhash_sketches(shingles, c, l=1000, seed=23)
    from sbustreamspot_core_ray.stages.lsh import lsh_clusters

    out = lsh_clusters(sketches, num_parts=4).to_pandas()
    cl = dict(zip(out["gid"], out["cluster"]))
    assert set(cl) == {0, 1, 2, 3}
    assert cl[1] == cl[2]  # identical sketches share every band


def test_isolated_anti_join():
    """C2: a gid whose sketch is the bitwise complement of every index
    sketch shares no band; an identical sketch shares all bands."""
    import pyarrow as pa
    import ray.data

    from sbustreamspot_core_ray.stages.lsh import hash_bands, isolated_gids

    rng = np.random.Generator(np.random.PCG64(5))
    base = rng.integers(0, 256, 125, dtype=np.uint8)
    idx_sk = ray.data.from_arrow(
        pa.table({"gid": pa.array([10, 11], pa.int64()),
                  "sketch": pa.array([base.tobytes(), base.tobytes()])})
    )
    q_sk = ray.data.from_arrow(
        pa.table({"gid": pa.array([1, 2], pa.int64()),
                  "sketch": pa.array([base.tobytes(), (~base).tobytes()])})
    )
    out = isolated_gids(hash_bands(q_sk), hash_bands(idx_sk), num_partitions=4).to_pandas()
    m = dict(zip(out["gid"], out["isolated"]))
    assert m == {1: False, 2: True}


def test_read_streamspot_tsv_matches_fixture(streamspot_files):
    """S1: the native TSV reader on the reference's own sample file must
    reproduce the inlined fixture table exactly (including seq order)."""
    from sbustreamspot_core_ray.sources.edges import (
        read_streamspot_tsv,
        streamspot_fixture_table,
    )

    ds = read_streamspot_tsv(streamspot_files.edges)
    got = ds.to_pandas().sort_values("seq").reset_index(drop=True)
    want = streamspot_fixture_table().to_pandas()
    assert got.equals(want)


def test_read_bootstrap_clusters_matches_fixture(streamspot_files):
    """S2: the committed bootstrap file parses to the documented 2-cluster
    fixture (FIXTURES.md §3)."""
    from sbustreamspot_core_ray.sources.bootstrap import (
        fixture_bootstrap,
        read_bootstrap_clusters,
    )

    got = read_bootstrap_clusters(streamspot_files.bootstrap)
    assert got == fixture_bootstrap()


# Provenance: where a checkout of the reference implementation is available
# (STREAMSPOT_REFERENCE_DIR names the directory holding its sample files),
# the committed copies must parse to exactly what the originals parse to.
_REFERENCE_DIR = os.environ.get("STREAMSPOT_REFERENCE_DIR", "")
_REF_EDGES = os.path.join(_REFERENCE_DIR, "test_edges.txt")
_REF_BOOTSTRAP = os.path.join(_REFERENCE_DIR, "test_bootstrap_clusters.txt")


@pytest.mark.skipif(
    not (
        _REFERENCE_DIR
        and os.path.exists(_REF_EDGES)
        and os.path.exists(_REF_BOOTSTRAP)
    ),
    reason="reference sample files not present (set STREAMSPOT_REFERENCE_DIR)",
)
def test_committed_samples_match_reference(streamspot_files):
    from sbustreamspot_core_ray.sources.bootstrap import read_bootstrap_clusters
    from sbustreamspot_core_ray.sources.edges import read_streamspot_tsv

    def edges(path):
        df = read_streamspot_tsv(path).to_pandas()
        return df.sort_values("seq").reset_index(drop=True)

    assert edges(streamspot_files.edges).equals(edges(_REF_EDGES))
    assert read_bootstrap_clusters(
        streamspot_files.bootstrap
    ) == read_bootstrap_clusters(_REF_BOOTSTRAP)


def test_scenario_presets():
    """M1 presets (main.cpp:128-146): gid//100 scenario membership."""
    import pyarrow as pa

    import ray.data
    from sbustreamspot_core_ray.sources.edges import scenario_filter

    gids = [0, 150, 250, 350, 450, 550]  # scenarios 0..5
    t = pa.table(
        {
            "src": pa.array([1] * 6, pa.int64()),
            "dst": pa.array([2] * 6, pa.int64()),
            "gid": pa.array(gids, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t)
    assert sorted(scenario_filter(ds, "all").to_pandas()["gid"]) == gids
    assert sorted(scenario_filter(ds, "ydc").to_pandas()["gid"]) == [0, 350, 450, 550]
    assert sorted(scenario_filter(ds, "gfc").to_pandas()["gid"]) == [150, 250, 350, 550]
