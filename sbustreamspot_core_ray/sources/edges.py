"""Edge-table sources: the engine's unit record.

Data model (SURVEY.md §1.2, re-expressing the reference's edge tuple
`/root/reference/graph.h:22-31` as a typed Arrow schema)::

    src: int64      # vertex id (64-bit stable hash, or arithmetic id)
    dst: int64
    src_type: uint8 # categorical node type (reference: single char)
    dst_type: uint8
    e_type: uint8   # categorical edge type
    gid: int64      # graph id — the reference's partitioning key
    seq: int64      # arrival order (reference: implicit file order)

Three producers:
- ``extract_edges(corpus)`` — repo→path *contains* and repo→import-target
  *imports* edges from the source-code corpus (the north-star input);
- ``edges_from_tpch(sf_dir)`` — deterministic customer→order→part→supplier
  reference graph from the driver's TPC-H-ish tables (SQL-checkable: the
  same derivation is expressible in ANSI SQL for the DuckDB oracle);
- ``streamspot_fixture_edges()`` — the reference's 12-edge smoke fixture
  (`/root/reference/test_edges.txt`, data not code) for sketch parity tests.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

import ray.data

from ..functions.hashing import stable_id64

EDGE_SCHEMA = pa.schema(
    [
        ("src", pa.int64()),
        ("dst", pa.int64()),
        ("src_type", pa.uint8()),
        ("dst_type", pa.uint8()),
        ("e_type", pa.uint8()),
        ("gid", pa.int64()),
        ("seq", pa.int64()),
    ]
)

# node / edge type enums for the corpus graph
NT_REPO, NT_PATH = 0, 1
ET_CONTAINS, ET_IMPORTS = 0, 1

# vertex-id offsets for the TPC-H-derived graph (arithmetic so ANSI SQL can
# reproduce them exactly; key ranges at any sf stay far below the offsets)
OFF_ORDER = 10_000_000
OFF_PART = 20_000_000
OFF_SUPP = 30_000_000

_IMPORT_RE = re.compile(r"^import\s+(\S+)$", re.M)


def _i64(u: np.ndarray) -> np.ndarray:
    return u.view(np.int64) if u.dtype == np.uint64 else u.astype(np.int64)


def _seq64(keys: list[str]) -> np.ndarray:
    """Deterministic pseudo-arrival-order: 63-bit blake2b of a row key.

    The corpus has no event time; the reference's 'time' is file order
    (`graph.cpp:111`). A seeded permutation of rows is equivalent for our
    purposes; a keyed hash IS a deterministic permutation and needs no
    global coordination at 10^12 rows.
    """
    out = np.empty(len(keys), dtype=np.int64)
    for i, k in enumerate(keys):
        d = hashlib.blake2b(k.encode(), digest_size=8).digest()
        out[i] = int.from_bytes(d, "little") >> 1
    return out


class EdgeExtractor:
    """Actor-pool stage: corpus batch → edge rows (regex compiled once).

    Emits, per corpus row (repo, path, content):
    - one *contains* edge  repo → "repo/path"
    - one *imports* edge per ``import {target}`` line, repo → target
      (self-imports dropped)
    gid = repo-id mod ``num_gids`` (scenario bucket, mirrors the
    reference's gid/100 scenario notion, `io.cpp:97`).
    """

    def __init__(self, num_gids: int = 1000):
        self.num_gids = num_gids
        self.re = _IMPORT_RE

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        repos = pd.Series(batch["repo"].to_pylist())
        paths = pd.Series(batch["path"].to_pylist())
        contents = pd.Series(batch["content"].to_pylist())
        full = repos + "/" + paths
        # vectorized import extraction: one extractall over the batch
        # (row index -> all import targets of that row, in line order)
        hits = contents.str.extractall(self.re)
        row_idx = hits.index.get_level_values(0).to_numpy()
        match_no = hits.index.get_level_values(1).to_numpy()
        tgts = hits[0].to_numpy()
        keep = tgts != full.to_numpy()[row_idx]
        row_idx, match_no, tgts = row_idx[keep], match_no[keep], tgts[keep]

        e_src = np.concatenate([repos.to_numpy(), repos.to_numpy()[row_idx]])
        e_dst = np.concatenate([full.to_numpy(), tgts])
        e_type = np.concatenate(
            [
                np.full(len(repos), ET_CONTAINS, np.uint8),
                np.full(len(row_idx), ET_IMPORTS, np.uint8),
            ]
        )
        seq_key = np.concatenate(
            [
                (full + "#c").to_numpy(),
                (full.to_numpy()[row_idx] + "#i"
                 + pd.Series(match_no).astype(str).to_numpy()),
            ]
        ).tolist()
        src = stable_id64(e_src, "R:")
        dst = stable_id64(e_dst, "P:")
        gid = (src % np.uint64(self.num_gids)).astype(np.int64)
        return pa.table(
            {
                "src": _i64(src),
                "dst": _i64(dst),
                "src_type": np.full(len(e_src), NT_REPO, np.uint8),
                "dst_type": np.full(len(e_src), NT_PATH, np.uint8),
                "e_type": np.asarray(e_type, np.uint8),
                "gid": gid,
                "seq": _seq64(seq_key),
            },
            schema=EDGE_SCHEMA,
        )


def extract_edges(corpus: ray.data.Dataset, num_gids: int = 1000) -> ray.data.Dataset:
    """Corpus → typed edge table (stateless-per-batch actor pool)."""
    return corpus.select_columns(["repo", "path", "content"]).map_batches(
        EdgeExtractor,
        fn_constructor_kwargs={"num_gids": num_gids},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 8),
    )


def _dedup_int_rows(arr: np.ndarray) -> np.ndarray:
    """Distinct rows of an int64 matrix, sorted lexicographically. Two
    columns in [0, 2^31) pack into one int64 and dedup with a 1-D
    np.unique (~6x faster than np.unique(axis=0)'s void-dtype sort,
    measured on 2.7M rows); anything else falls back to a lexsort +
    adjacent-compare run-scan (~2x faster than axis=0)."""
    if len(arr) == 0:
        return arr
    if (
        arr.shape[1] == 2
        and int(arr.min()) >= 0
        and int(arr.max()) < (1 << 31)
    ):
        pk = (arr[:, 0] << np.int64(32)) | arr[:, 1]
        u = np.unique(pk)
        return np.stack([u >> np.int64(32), u & np.int64(0xFFFFFFFF)], axis=1)
    order = np.lexsort(tuple(arr[:, j] for j in range(arr.shape[1] - 1, -1, -1)))
    s = arr[order]
    keep = np.ones(len(s), bool)
    keep[1:] = (s[1:] != s[:-1]).any(axis=1)
    return s[keep]


def distinct_int_rows(
    ds: ray.data.Dataset, cols: list[str], num_parts: int = 32
) -> ray.data.Dataset:
    """Distinct rows over integer key columns, the scale-friendly way:
    batch-local np.unique (combiner) → ONE shuffle on a derived int32
    hash-partition key (cheap to sort vs. a multi-column key) → vectorized
    np.unique per partition. ~2× faster than groupby(cols).count() on the
    same input and the shuffle key cardinality is num_parts, not |rows|.
    Column dtypes are preserved."""
    from ..functions.hashing import part_of

    GOLD = np.uint64(0x9E3779B97F4A7C15)

    def local(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        arr = np.stack(
            [t[c].to_numpy(zero_copy_only=False).astype(np.int64) for c in cols],
            axis=1,
        )
        arr = _dedup_int_rows(arr)
        h = np.zeros(len(arr), np.uint64)
        with np.errstate(over="ignore"):
            for j in range(arr.shape[1]):
                h = h * GOLD + arr[:, j].view(np.uint64)
        out = {c: pa.array(arr[:, j]).cast(t.schema.field(c).type)
               for j, c in enumerate(cols)}
        out["__p"] = pa.array(part_of(h, num_parts), pa.int32())
        return pa.table(out)

    def uniq(t: pa.Table) -> pa.Table:
        arr = np.stack(
            [t[c].to_numpy(zero_copy_only=False).astype(np.int64) for c in cols],
            axis=1,
        )
        u = _dedup_int_rows(arr)
        return pa.table(
            {c: pa.array(u[:, j]).cast(t.schema.field(c).type)
             for j, c in enumerate(cols)}
        )

    return (
        ds.map_batches(local, batch_format="pyarrow")
        .groupby("__p")
        .map_groups(uniq, batch_format="pyarrow")
    )


def edges_from_tpch(sf_dir: str, dedup: bool = True) -> ray.data.Dataset:
    """Deterministic (src, dst) graph from the TPC-H-ish tables.

    customer --places--> order --contains--> part --supplied_by--> supplier,
    with arithmetic vertex ids (see OFF_* above) and distinct edges. The
    identical derivation in ANSI SQL::

        SELECT DISTINCT o_custkey AS src, 10000000 + o_orderkey AS dst FROM orders
        UNION
        SELECT DISTINCT 10000000 + l_orderkey, 20000000 + l_partkey FROM lineitem
        UNION
        SELECT DISTINCT 20000000 + l_partkey, 30000000 + l_suppkey FROM lineitem
    """
    import pyarrow.compute as pc

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey", "l_suppkey"]
    )

    def co(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pc.cast(t["o_custkey"], pa.int64()),
                "dst": pc.add(pc.cast(t["o_orderkey"], pa.int64()), OFF_ORDER),
            }
        )

    def op(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pc.add(pc.cast(t["l_orderkey"], pa.int64()), OFF_ORDER),
                "dst": pc.add(pc.cast(t["l_partkey"], pa.int64()), OFF_PART),
            }
        )

    def ps(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pc.add(pc.cast(t["l_partkey"], pa.int64()), OFF_PART),
                "dst": pc.add(pc.cast(t["l_suppkey"], pa.int64()), OFF_SUPP),
            }
        )

    ds = (
        orders.map_batches(co, batch_format="pyarrow")
        .union(li.map_batches(op, batch_format="pyarrow"))
        .union(li.map_batches(ps, batch_format="pyarrow"))
    )
    # dedup=False for graph-build consumers: CsrShard.finalize() dedups each
    # shard locally (state/csr.py), so the pre-shuffle here would be a
    # redundant all-to-all
    return dedup_edges(ds) if dedup else ds


def dedup_edges(ds: ray.data.Dataset, num_parts: int = 32) -> ray.data.Dataset:
    """Exact edge dedup: hash-partition on the edge key, first-wins.

    SURVEY.md §7.3 'exact dedup' row. Batch-local np.unique (combiner) cuts
    shuffle volume; one shuffle on the derived partition key; vectorized
    per-partition dedup (never per-group Python)."""
    return distinct_int_rows(ds, ["src", "dst"], num_parts)


# Dataset presets: scenario id = gid/100 (`/root/reference/io.cpp:97`);
# preset -> scenario set (`main.cpp:128-146`; scenario 3 is the attack)
STREAMSPOT_DATASETS: dict[str, tuple[int, ...]] = {
    "all": (0, 1, 2, 3, 4, 5),
    "ydc": (0, 4, 5, 3),
    "gfc": (1, 2, 5, 3),
}


def scenario_filter(edges: ray.data.Dataset, dataset: str = "all") -> ray.data.Dataset:
    """M1 scenario predicate as a first-class operator: keep edges whose
    scenario (gid // 100) is in the preset (`io.cpp:97-113`,
    `main.cpp:128-146`). Vectorized `pc.is_in` per batch."""
    import pyarrow.compute as pc

    scenarios = STREAMSPOT_DATASETS[dataset]

    def flt(t: pa.Table) -> pa.Table:
        scen = pc.divide(t["gid"], pa.scalar(100, pa.int64()))
        return t.filter(pc.is_in(scen, value_set=pa.array(scenarios, pa.int64())))

    return edges.map_batches(flt, batch_format="pyarrow")


def read_streamspot_tsv(
    path: str, dataset: str = "all"
) -> ray.data.Dataset:
    """S1: read the reference's native TSV edge format
    (``src_id \\t src_type \\t dst_id \\t dst_type \\t e_type \\t gid``,
    `/root/reference/io.cpp:57-95`, sample `test_edges.txt`) into the typed
    EDGE_SCHEMA table, with `seq` = file line number (arrival order IS the
    timestamp, `graph.cpp:111`) and the scenario preset filter applied.

    The reference's input is one sequentially-ordered TSV whose line order
    carries the stream semantics, so the parse is a single ordered pass
    (pyarrow's C csv reader); corpus-scale inputs use the parquet path
    (`extract_edges`) where `seq` is explicit per row.

    `seq` numbers the KEPT rows 0..n-1 (the scenario preset is applied
    BEFORE numbering): the reference's snapshot interval counts only
    processed edges (`main.cpp:394` `edge_num % CLUSTER_UPDATE_INTERVAL`),
    so a raw-line-number seq would shift `score_stream` window boundaries
    under ydc/gfc presets. Callers that further split train/test should
    renumber the test stream with `renumber_seq`."""
    import pyarrow.compute as pc
    import pyarrow.csv as pacsv

    tbl = pacsv.read_csv(
        path,
        read_options=pacsv.ReadOptions(
            column_names=["src", "src_type", "dst", "dst_type", "e_type", "gid"]
        ),
        parse_options=pacsv.ParseOptions(delimiter="\t"),
        convert_options=pacsv.ConvertOptions(
            column_types={
                "src": pa.int64(),
                "dst": pa.int64(),
                "gid": pa.int64(),
                "src_type": pa.string(),
                "dst_type": pa.string(),
                "e_type": pa.string(),
            }
        ),
    )
    scenarios = STREAMSPOT_DATASETS[dataset]
    tbl = tbl.filter(
        pc.is_in(
            pc.divide(tbl["gid"], pa.scalar(100, pa.int64())),
            value_set=pa.array(scenarios, pa.int64()),
        )
    )

    def ch(col: pa.ChunkedArray) -> pa.Array:
        # dictionary-cast route: ord() runs once per DISTINCT type char
        # (a handful), then a vectorized take over the index array — scales
        # to a 100M-row TSV where a per-row Python loop would not
        d = pc.dictionary_encode(col.combine_chunks())
        vals = np.array([ord(s[0]) for s in d.dictionary.to_pylist()], np.uint8)
        return pa.array(vals[d.indices.to_numpy()])

    out = pa.table(
        {
            "src": tbl["src"],
            "dst": tbl["dst"],
            "src_type": ch(tbl["src_type"]),
            "dst_type": ch(tbl["dst_type"]),
            "e_type": ch(tbl["e_type"]),
            "gid": tbl["gid"],
            "seq": pa.array(np.arange(tbl.num_rows, dtype=np.int64)),
        },
        schema=EDGE_SCHEMA,
    )
    return ray.data.from_arrow(out)


def renumber_seq(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Reassign `seq` to a dense 0..n-1 numbering in current-seq order.

    Used after any filter/split of an ordered stream (e.g. dropping train
    gids from a StreamSpot TSV) so window ids in `score_stream` count only
    PROCESSED edges, matching the reference's `edge_num` counter
    (`main.cpp:394`). One sort; block-local renumber via the per-block row
    offsets (no driver materialization)."""
    srt = edges.sort("seq").materialize()
    # per-block start offsets from the block row counts (ordered after sort)
    bundles = srt.iter_internal_ref_bundles()
    import ray as _ray

    sizes: list[int] = []
    blocks = []
    for b in bundles:
        for ref, meta in b.blocks:
            sizes.append(meta.num_rows)
            blocks.append(ref)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)

    @_ray.remote
    def renum(block, off: int) -> pa.Table:
        t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        return t.set_column(
            t.schema.get_field_index("seq"),
            "seq",
            pa.array(np.arange(off, off + t.num_rows, dtype=np.int64)),
        )

    out = [renum.remote(ref, int(off)) for ref, off in zip(blocks, offsets)]
    return ray.data.from_arrow_refs(out)


# The reference's 12-edge fixture (data, verbatim from the reference's
# sample file test_edges.txt; the same rows in its TSV format are committed
# as tests/data/streamspot/test_edges.txt): (src_id, src_type, dst_id,
# dst_type, e_type, gid); arrival order = row order.
STREAMSPOT_FIXTURE = [
    (4, "a", 5, "b", "t", 0),
    (4, "a", 5, "b", "t", 1),
    (6, "p", 5, "b", "t", 1),
    (5, "b", 7, "q", "t", 1),
    (5, "b", 8, "r", "t", 1),
    (4, "a", 5, "b", "t", 2),
    (6, "p", 5, "b", "t", 2),
    (5, "b", 7, "q", "t", 2),
    (5, "b", 8, "r", "t", 2),
    (4, "a", 5, "b", "t", 3),
    (5, "b", 10, "p", "t", 3),
    (5, "b", 11, "q", "t", 3),
]


def streamspot_fixture_table() -> pa.Table:
    rows = STREAMSPOT_FIXTURE
    return pa.table(
        {
            "src": pa.array([r[0] for r in rows], pa.int64()),
            "dst": pa.array([r[2] for r in rows], pa.int64()),
            "src_type": pa.array([ord(r[1]) for r in rows], pa.uint8()),
            "dst_type": pa.array([ord(r[3]) for r in rows], pa.uint8()),
            "e_type": pa.array([ord(r[4]) for r in rows], pa.uint8()),
            "gid": pa.array([r[5] for r in rows], pa.int64()),
            "seq": pa.array(list(range(len(rows))), pa.int64()),
        },
        schema=EDGE_SCHEMA,
    )


def streamspot_fixture_edges() -> ray.data.Dataset:
    return ray.data.from_arrow(streamspot_fixture_table())
