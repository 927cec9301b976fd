"""The reference-shaped CLI (S5, `main.cpp:31-51`) and its helpers."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data


def _mk_edges(gids: list[int]) -> ray.data.Dataset:
    n = len(gids)
    return ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(np.arange(n), pa.int64()),
                "dst": pa.array(np.arange(n) + 1, pa.int64()),
                "src_type": pa.array(np.full(n, 97), pa.uint8()),
                "dst_type": pa.array(np.full(n, 98), pa.uint8()),
                "e_type": pa.array(np.full(n, 116), pa.uint8()),
                "gid": pa.array(gids, pa.int64()),
                "seq": pa.array(np.arange(n), pa.int64()),
            }
        )
    )


def test_renumber_seq_dense_and_order_preserving():
    from sbustreamspot_core_ray.sources.edges import renumber_seq

    ds = _mk_edges([0, 1, 0, 1, 0])
    # drop gid 1 rows, leaving seq gaps (0, 2, 4)
    filtered = ds.filter(expr="gid == 0")
    out = renumber_seq(filtered).to_pandas().sort_values("seq")
    assert out["seq"].tolist() == [0, 1, 2]
    # original relative order preserved: src was 0, 2, 4
    assert out["src"].tolist() == [0, 2, 4]


def test_interleave_groups_preserves_per_gid_order():
    from sbustreamspot_core_ray.cli import interleave_groups

    gids = [g for g in (7, 8, 9, 10) for _ in range(25)]
    ds = _mk_edges(gids)
    out = interleave_groups(ds, par=2, seed=23).to_pandas().sort_values("seq")
    # dense 0..n-1 numbering
    assert out["seq"].tolist() == list(range(len(gids)))
    # per-gid edge order (the src column is monotone per gid in the input)
    for g, grp in out.groupby("gid"):
        assert grp["src"].is_monotonic_increasing
    # groups of par gids stream sequentially: the first len(group0) seqs
    # contain exactly 2 distinct gids (50 edges), the rest the other 2
    first = set(out.head(50)["gid"])
    rest = set(out.tail(50)["gid"])
    assert len(first) == 2 and len(rest) == 2 and not (first & rest)
    # deterministic across calls
    out2 = interleave_groups(ds, par=2, seed=23).to_pandas().sort_values("seq")
    assert out["gid"].tolist() == out2["gid"].tolist()


def test_run_streamspot_reference_fixture(tmp_path, streamspot_files):
    """The CLI composition on the reference's own fixture files (committed
    under tests/data/streamspot/) reproduces the fixture pipeline: train
    gids {0,1} form the bootstrap clusters, test gids {2,3}; gid 2 is
    (near-)identical to gid 1's graph and must land in cluster 1 with the
    same scores as the pytest fixture path."""
    from sbustreamspot_core_ray.cli import run_streamspot

    res = run_streamspot(
        streamspot_files.edges,
        streamspot_files.bootstrap,
        chunk_length=5,
        par=2,
        snapshot_dir=str(tmp_path / "snaps"),
        evaluate=True,
    )
    snaps: pd.DataFrame = res["snapshots"]
    assert res["num_test_edges"] == 7
    last = snaps[snaps["interval"] == snaps["interval"].max()]
    by_gid = last.set_index("gid")
    # training gids keep their bootstrap clusters with score 0 (identical
    # to their own centroid; each is a singleton cluster)
    assert int(by_gid.loc[0, "cluster_id"]) == 0
    assert int(by_gid.loc[1, "cluster_id"]) == 1
    assert by_gid.loc[0, "anomaly_score"] == 0.0
    # gid 2's graph == gid 1's graph -> assigned, not anomalous
    assert int(by_gid.loc[2, "cluster_id"]) >= 0
    rep = res["anomaly_report"]
    assert set(rep.columns) >= {"scenario", "precision", "recall", "n_flagged"}
    # metrics table captured the S4 stage timers
    assert res["metrics"] is not None and len(res["metrics"]) > 0


def test_cli_rejects_empty_dataset(streamspot_files):
    import pytest

    from sbustreamspot_core_ray.cli import run_streamspot

    with pytest.raises(SystemExit):
        run_streamspot(
            streamspot_files.edges,
            streamspot_files.bootstrap,
            chunk_length=5,
            par=2,
            dataset="gfc",  # fixture gids are all scenario 0 -> filtered out
        )


def test_linkgraph_job_end_to_end(tmp_path):
    """The ray-job-submit driver: demo corpus -> all four kernels ->
    resumable partitioned output; a rerun skips every finished partition."""
    import importlib.util
    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "linkgraph_job_under_test", os.path.join(root, "linkgraph_job.py")
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)

    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    rc = m.main(
        [
            "--demo", corpus, "--demo-files", "400", "--output", out,
            "--num-parts", "2", "--out-buckets", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
    )
    assert rc == 0
    metrics = json.load(open(os.path.join(out, "_METRICS.json")))
    assert metrics["n_edge_rows"] > 0
    assert set(metrics["pagerank_partitions"]["written"]) == {"0", "1"}
    assert os.path.exists(os.path.join(out, "triangles.parquet"))
    assert os.path.exists(
        os.path.join(out, "pagerank", "bucket=0", "_SUCCESS")
    )
    # rerun: every partition skipped (resume contract)
    rc = m.main(
        ["--corpus", corpus, "--output", out, "--algos", "pagerank",
         "--num-parts", "2", "--out-buckets", "2"]
    )
    assert rc == 0
    metrics2 = json.load(open(os.path.join(out, "_METRICS.json")))
    assert set(metrics2["pagerank_partitions"]["skipped"]) == {"0", "1"}
