"""Graph residency: how an engine maps the CSR onto the platform.

Three placements cover every system in the paper:

* :class:`GammaResidence` — GAMMA's: small structural arrays (offsets,
  labels, per-edge endpoints' index) live in device memory; the large
  adjacency payloads (``neighbors`` and adjacency-slot ``edge_ids``) live in
  host memory behind :class:`~repro.gpusim.hybrid.HybridRegion` with the
  access-heat planner choosing per-page modes (§IV).
* :class:`InCoreResidence` — Pangolin/GSI: everything staged into device
  memory; large graphs raise :class:`~repro.errors.DeviceOutOfMemory`.
* :class:`HostResidence` — CPU baselines: plain host arrays; cost is
  charged per operation through :class:`~repro.gpusim.kernel.CpuExecutor`.

All three expose the same read API, so the extension engine is placement-
agnostic — exactly the transparency the paper claims for implicit access.
"""

# gammalint: module-allow[charge] -- this module IS the charging boundary:
# every raw CSR read below is paired with a region gather / clock charge,
# and engines are required to come through these accessors.

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..gpusim import clock as clk
from ..gpusim.platform import GpuPlatform
from ..gpusim.regions import expand_ranges


class GraphResidence:
    """Common interface: charged reads of the graph's arrays."""

    def __init__(self, platform: GpuPlatform, graph: CSRGraph) -> None:
        self.platform = platform
        self.graph = graph

    # -- reads used by the extension engine ---------------------------------
    def adjacency_of(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbor lists + lengths for ``vertices`` (with
        multiplicity: a vertex listed twice is read twice)."""
        raise NotImplementedError

    def incident_edges_of(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated incident edge-id lists + lengths."""
        raise NotImplementedError

    def labels_of(self, vertices: np.ndarray) -> np.ndarray:
        vertices = np.asarray(vertices, dtype=np.int64)
        self.charge_label_reads(len(vertices))
        return self.graph.labels[vertices]

    def charge_label_reads(self, count: int) -> None:
        """Bill ``count`` label probes (free on plain host arrays)."""

    def endpoints_of(self, edge_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def degrees_of(self, vertices: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def release(self) -> None:
        """Free any platform resources held by this residence."""

    def _ranges(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vertices = np.asarray(vertices, dtype=np.int64)
        return self.graph.offsets[vertices], self.graph.offsets[vertices + 1]


class GammaResidence(GraphResidence):
    """GAMMA's placement with hybrid host-memory adjacency access."""

    def __init__(
        self,
        platform: GpuPlatform,
        graph: CSRGraph,
        buffer_pages: int,
    ) -> None:
        super().__init__(platform, graph)
        with platform.telemetry.span("graph-residence", kind="stage"):
            # Structural arrays on the device (small even for our largest
            # stand-ins): offsets, labels, and edge endpoint columns'
            # *offsets* are addressed positionally; we keep offsets+labels
            # device-resident and endpoints in zero-copy host memory
            # (isolated lookups).
            structural = graph.offsets.nbytes + graph.labels.nbytes
            self._structural_alloc = platform.device.allocate(structural, "graph:structural")
            platform.pcie.explicit_copy(structural, to_device=True)
            self._buffer_pages = buffer_pages
            self.neighbors = platform.hybrid_region(
                "graph:neighbors", graph.neighbors, buffer_pages
            )
        # Edge-side mappings are registered lazily: a vertex-extension
        # workload (SM, kCL) never touches incident-edge lists or endpoint
        # tables, so it should not pay their host-preparation cost.
        self._edge_slots: "object | None" = None
        self._endpoints_src = None
        self._endpoints_dst = None

    @property
    def edge_slots(self):
        if self._edge_slots is None:
            self._edge_slots = self.platform.hybrid_region(
                "graph:edge-ids", self.graph.edge_ids, self._buffer_pages
            )
        return self._edge_slots

    def _endpoints(self):
        if self._endpoints_src is None:
            self._endpoints_src = self.platform.zerocopy_region(
                "graph:edge-src", self.graph.edge_src
            )
            self._endpoints_dst = self.platform.zerocopy_region(
                "graph:edge-dst", self.graph.edge_dst
            )
        return self._endpoints_src, self._endpoints_dst

    def adjacency_of(self, vertices):
        starts, ends = self._ranges(vertices)
        return self.neighbors.gather_ranges(starts, ends)

    def incident_edges_of(self, vertices):
        starts, ends = self._ranges(vertices)
        return self.edge_slots.gather_ranges(starts, ends)

    def charge_label_reads(self, count):
        self.platform.clock.advance(
            clk.DEVICE_MEM, 8 * count / self.platform.cost.device_bandwidth
        )

    def endpoints_of(self, edge_ids):
        src_region, dst_region = self._endpoints()
        return src_region.gather(edge_ids), dst_region.gather(edge_ids)

    def degrees_of(self, vertices):
        vertices = np.asarray(vertices, dtype=np.int64)
        self.platform.clock.advance(
            clk.DEVICE_MEM, 2 * vertices.nbytes / self.platform.cost.device_bandwidth
        )
        return self.graph.offsets[vertices + 1] - self.graph.offsets[vertices]

    def release(self):
        self.platform.device.free(self._structural_alloc)
        for region in (
            self.neighbors, self._edge_slots,
            self._endpoints_src, self._endpoints_dst,
        ):
            if region is not None:
                region.release()


class InCoreResidence(GraphResidence):
    """Everything in device memory (Pangolin-GPU / GSI style).

    Construction stages the whole CSR over PCIe; graphs larger than device
    memory raise :class:`~repro.errors.DeviceOutOfMemory` right here — the
    first of the two crash modes of the in-core baselines.
    """

    def __init__(self, platform: GpuPlatform, graph: CSRGraph) -> None:
        super().__init__(platform, graph)
        with platform.telemetry.span("graph-residence", kind="stage"):
            self.neighbors = platform.device_region(
                "graph:neighbors", graph.neighbors
            )
            structural = graph.offsets.nbytes + graph.labels.nbytes
            self._structural_alloc = platform.device.allocate(structural, "graph:structural")
            platform.pcie.explicit_copy(structural, to_device=True)
        # Edge-side arrays staged on first use (same laziness as GAMMA's
        # residence, so comparisons stay apples-to-apples).
        self._edge_slots = None
        self._endpoints_src = None
        self._endpoints_dst = None

    @property
    def edge_slots(self):
        if self._edge_slots is None:
            self._edge_slots = self.platform.device_region(
                "graph:edge-ids", self.graph.edge_ids
            )
        return self._edge_slots

    def _endpoints(self):
        if self._endpoints_src is None:
            self._endpoints_src = self.platform.device_region(
                "graph:edge-src", self.graph.edge_src
            )
            self._endpoints_dst = self.platform.device_region(
                "graph:edge-dst", self.graph.edge_dst
            )
        return self._endpoints_src, self._endpoints_dst

    def adjacency_of(self, vertices):
        starts, ends = self._ranges(vertices)
        return self.neighbors.gather_ranges(starts, ends)

    def incident_edges_of(self, vertices):
        starts, ends = self._ranges(vertices)
        return self.edge_slots.gather_ranges(starts, ends)

    def charge_label_reads(self, count):
        self.platform.clock.advance(
            clk.DEVICE_MEM, 8 * count / self.platform.cost.device_bandwidth
        )

    def endpoints_of(self, edge_ids):
        src_region, dst_region = self._endpoints()
        return src_region.gather(edge_ids), dst_region.gather(edge_ids)

    def degrees_of(self, vertices):
        vertices = np.asarray(vertices, dtype=np.int64)
        self.platform.clock.advance(
            clk.DEVICE_MEM, 2 * vertices.nbytes / self.platform.cost.device_bandwidth
        )
        return self.graph.offsets[vertices + 1] - self.graph.offsets[vertices]

    def release(self):
        self.platform.device.free(self._structural_alloc)
        for region in (
            self.neighbors, self._edge_slots,
            self._endpoints_src, self._endpoints_dst,
        ):
            if region is not None:
                region.release()


class HostResidence(GraphResidence):
    """Plain host arrays for CPU engines; reads are uncharged here because
    CPU engines charge per traversal operation instead."""

    def adjacency_of(self, vertices):
        starts, ends = self._ranges(vertices)
        flat = expand_ranges(starts, ends)
        return self.graph.neighbors[flat], ends - starts

    def incident_edges_of(self, vertices):
        starts, ends = self._ranges(vertices)
        flat = expand_ranges(starts, ends)
        return self.graph.edge_ids[flat], ends - starts

    def endpoints_of(self, edge_ids):
        return self.graph.edge_endpoints(np.asarray(edge_ids, dtype=np.int64))

    def degrees_of(self, vertices):
        vertices = np.asarray(vertices, dtype=np.int64)
        return self.graph.offsets[vertices + 1] - self.graph.offsets[vertices]
