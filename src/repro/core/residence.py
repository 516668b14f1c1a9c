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

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..gpusim import clock as clk
from ..gpusim.platform import GpuPlatform
from ..gpusim.regions import expand_ranges


class EndpointReads:
    """Edge endpoint reads, batch by batch: :meth:`gather` returns a
    batch's ``(src, dst)``, and :meth:`charge`, after the last batch,
    bills both endpoint arrays (source first) as one read of every batch's
    ids (:class:`~repro.gpusim.regions.GatherTally`).  The two arrays share
    length and dtype, so a batch's marks (its line ids) are computed once
    for both."""

    def __init__(self, src, dst) -> None:
        self._src, self._dst = src, dst

    def gather(self, edge_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        marks = self._src.marks(edge_ids)
        return (self._src.gather(edge_ids, marks),
                self._dst.gather(edge_ids, marks))

    def note(self, edge_ids: np.ndarray, count: int) -> None:
        """Tally, ungathered, a read of ``count`` ids whose distinct values
        ``edge_ids`` holds (repeats allowed) on both arrays."""
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        self._src.note(edge_ids, count)
        self._dst.note(edge_ids, count)

    def charge(self) -> None:
        self._src.charge()
        self._dst.charge()


class _Unbilled:
    """A plain host array behind the tally interface (CPU engines bill
    their operations, not their reads)."""

    def __init__(self, array: np.ndarray) -> None:
        self._array = array

    def gather(self, indices: np.ndarray, marks=None) -> np.ndarray:
        return self._array[np.asarray(indices, dtype=np.int64)]

    def marks(self, indices: np.ndarray) -> None:
        return None

    def note(self, indices: np.ndarray, count: int) -> None:
        pass

    def charge(self) -> None:
        pass


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

    def endpoint_reads(self) -> "EndpointReads":
        """Edge endpoint reads issued batch by batch, billed once."""
        return EndpointReads(
            *(region.gather_batches() for region in self._endpoints()))

    def endpoints_of(self, edge_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` of ``edge_ids``, billed: the one-batch case of
        :meth:`endpoint_reads`."""
        reads = self.endpoint_reads()
        ends = reads.gather(edge_ids)
        reads.charge()
        return ends

    def _endpoints(self):
        """The ``(src, dst)`` endpoint regions, mapped on first use."""
        raise NotImplementedError

    def degrees_of(self, vertices: np.ndarray) -> np.ndarray:
        """The degrees of ``vertices``, billed as one degree-table read
        each (:meth:`charge_degree_reads`)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        self.charge_degree_reads(vertices.size)
        return self.graph.degree_table().take(vertices)

    def charge_degree_reads(self, count: int) -> None:
        """Bill ``count`` degree-table reads (free on plain host arrays)."""

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

    def charge_degree_reads(self, count):
        # Two 8-byte offsets a degree.
        self.platform.clock.advance(
            clk.DEVICE_MEM, 16 * count / self.platform.cost.device_bandwidth
        )

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

    def charge_degree_reads(self, count):
        # Two 8-byte offsets a degree.
        self.platform.clock.advance(
            clk.DEVICE_MEM, 16 * count / self.platform.cost.device_bandwidth
        )

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

    def endpoint_reads(self):
        return EndpointReads(
            _Unbilled(self.graph.edge_src), _Unbilled(self.graph.edge_dst))

