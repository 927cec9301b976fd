"""S2: bootstrap-cluster reader (reference `io.cpp:134-164`).

File format (the reference's sample `test_bootstrap_clusters.txt`, committed
as `tests/data/streamspot/test_bootstrap_clusters.txt`):
line 1: ``<nclusters> <global_threshold>``; then one line per cluster:
``<threshold> <gid> <gid> ...``.

Tiny driver-side read (the file is a handful of lines); the result is
broadcast to tasks via ``ray.put`` by callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BootstrapClusters:
    nclusters: int
    global_threshold: float
    cluster_thresholds: list[float] = field(default_factory=list)
    members: list[list[int]] = field(default_factory=list)  # cluster -> gids

    @property
    def cluster_map(self) -> dict[int, int]:
        return {g: c for c, gs in enumerate(self.members) for g in gs}

    @property
    def train_gids(self) -> set[int]:
        return {g for gs in self.members for g in gs}


def read_bootstrap_clusters(path: str) -> BootstrapClusters:
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    n, g = lines[0].split()
    bc = BootstrapClusters(nclusters=int(n), global_threshold=float(g))
    for ln in lines[1 : 1 + bc.nclusters]:
        parts = ln.split()
        bc.cluster_thresholds.append(float(parts[0]))
        bc.members.append([int(x) for x in parts[1:]])
    return bc


def fixture_bootstrap() -> BootstrapClusters:
    """The reference's 2-cluster smoke fixture (data, not code):
    clusters {0} and {1}, per-cluster thresholds 0.5, global 0.6."""
    return BootstrapClusters(
        nclusters=2,
        global_threshold=0.6,
        cluster_thresholds=[0.5, 0.5],
        members=[[0], [1]],
    )
