"""A driver-facing view over one embedding table per partition.

Algorithm drivers (``repro.algorithms``) are engine-agnostic: they talk to
whatever object ``new_vertex_table``/``new_edge_table`` returns.  On the
:class:`~repro.core.framework.Gamma` engine that object is a
:class:`ShardedTable` — a thin proxy holding one
:class:`~repro.core.embedding_table.EmbeddingTable` per partition (one on
one GPU) and presenting the *global* view drivers expect:

* scalar shape (``num_embeddings``, ``depth``, ``nbytes``) sums shards;
* column reads concatenate shards in shard order, with parent pointers
  rebased onto the concatenated previous column (one shard's are its own
  arrays, uncopied);
* ``materialize`` stacks per-shard matrices in shard order.

The global row order is therefore *shard-major*: all of shard 0's rows,
then shard 1's, and so on.  Everything that maps global masks back onto
partitions (``Gamma.filtering``) relies on that ordering.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.embedding_table import EmbeddingTable
from ..errors import ExecutionError


class RemotePart:
    """Read proxy for one shard's embedding table in a worker process.

    Presents the slice of the :class:`~repro.core.embedding_table
    .EmbeddingTable` surface that :class:`ShardedTable` and the algorithm
    drivers actually touch; every access is one ``call`` round trip to the
    owning worker.  Mutation happens only through engine ops, exactly as
    with in-process parts.
    """

    __slots__ = ("_executor", "shard", "handle")

    def __init__(self, executor, shard: int, handle: int) -> None:
        self._executor = executor
        self.shard = shard
        self.handle = handle

    def _call(self, op: str, **args):
        return self._executor.call(self.shard, op,
                                   dict(table=self.handle, **args))

    def _info(self) -> dict:
        return self._call("table_info")

    @property
    def num_embeddings(self) -> int:
        return self._info()["num_embeddings"]

    @property
    def depth(self) -> int:
        return self._info()["depth"]

    @property
    def total_cells(self) -> int:
        return self._info()["total_cells"]

    @property
    def nbytes(self) -> int:
        return self._info()["nbytes"]

    def column_length(self, level: int) -> int:
        return self._call("column", what="length", level=level)

    def column_values(self, level: int) -> np.ndarray:
        return self._call("column", what="values", level=level)

    def column_parents(self, level: int) -> np.ndarray:
        return self._call("column", what="parents", level=level)

    def materialize(self) -> np.ndarray:
        return self._call("materialize")

    def seed(self, values: np.ndarray) -> None:
        self._call("seed_explicit",
                   values=np.ascontiguousarray(values, dtype=np.int64))

    def release(self) -> None:
        self._call("release_table")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemotePart(shard={self.shard}, handle={self.handle})"


class ShardedTable:
    """Global view over per-shard embedding tables (shard-major rows).

    ``parts`` are real :class:`EmbeddingTable` objects on the serial
    backend and :class:`RemotePart` proxies on the process backend;
    ``handles`` are the per-worker table indices engine commands address
    shards by (defaults to positional identity for direct construction in
    tests).
    """

    def __init__(self, kind: str, name: str, parts: List[EmbeddingTable],
                 handles: "List[int] | None" = None) -> None:
        if not parts:
            raise ExecutionError("a sharded table needs at least one shard")
        self.kind = kind
        self.name = name
        self.parts = list(parts)
        self.handles = (list(handles) if handles is not None
                        else list(range(len(self.parts))))

    # -- shape ---------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.parts)

    @property
    def depth(self) -> int:
        return self.parts[0].depth

    @property
    def num_embeddings(self) -> int:
        return sum(part.num_embeddings for part in self.parts)

    @property
    def total_cells(self) -> int:
        return sum(part.total_cells for part in self.parts)

    @property
    def nbytes(self) -> int:
        return sum(part.nbytes for part in self.parts)

    def shard_row_counts(self, level: int | None = None) -> np.ndarray:
        """Rows per shard at ``level`` (default: the last column)."""
        if level is None:
            return np.array(
                [part.num_embeddings for part in self.parts], dtype=np.int64
            )
        return np.array(
            [part.column_length(level) for part in self.parts], dtype=np.int64
        )

    def split_rows(self, values: np.ndarray) -> List[np.ndarray]:
        """Split a global per-row array back into per-partition pieces
        (partition-major order).  One partition takes the array whole: no
        row count to check it against, which during a resumed replay would
        already be the op's result."""
        values = np.asarray(values)
        if len(self.parts) == 1:
            return [values]
        counts = self.shard_row_counts()
        if len(values) != int(counts.sum()):
            raise ExecutionError(
                f"global row array has {len(values)} entries, table has "
                f"{int(counts.sum())} rows"
            )
        return np.split(values, np.cumsum(counts)[:-1])

    # -- reads ---------------------------------------------------------------
    def column_values(self, level: int) -> np.ndarray:
        """Concatenated ids of one level (shard-major; one shard's own)."""
        if len(self.parts) == 1:
            return self.parts[0].column_values(level)
        return np.concatenate(
            [part.column_values(level) for part in self.parts])

    def column_parents(self, level: int) -> np.ndarray:
        """Concatenated parent pointers of one level, rebased to index the
        concatenated previous column (one shard's own)."""
        if len(self.parts) == 1:
            return self.parts[0].column_parents(level)
        pieces = []
        offset = 0
        for part in self.parts:
            parents = part.column_parents(level)
            if level > 0:
                pieces.append(np.where(parents >= 0, parents + offset, parents))
                offset += part.column_length(level - 1)
            else:
                pieces.append(parents)
        return np.concatenate(pieces)

    def materialize(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Full embeddings as an ``(n, depth)`` matrix (shard-major rows;
        one shard's own)."""
        if rows is not None:
            raise ExecutionError(
                "row-subset materialize is not supported on sharded tables"
            )
        if len(self.parts) == 1:
            return self.parts[0].materialize()
        mats = [part.materialize() for part in self.parts]
        mats = [m for m in mats if m.size]
        if not mats:
            return np.empty((0, self.depth), dtype=np.int64)
        return np.concatenate(mats, axis=0)

    # -- seeding -------------------------------------------------------------
    def seed(self, values: np.ndarray) -> None:
        """Driver-supplied explicit seed, partitioned by unit ownership.

        Rows land in shard-major order (a stable partition of ``values``),
        so drivers keeping host-side per-row state must re-align it to
        ``column_values(0)`` after seeding (see ``match_pattern_binary``).
        """
        owner = getattr(self, "owner", None)
        if owner is None:
            raise ExecutionError(
                "sharded tables can only be seeded through their engine"
            )
        owner._seed_explicit(self, values)

    # -- lifecycle -----------------------------------------------------------
    def release(self) -> None:
        """Free every part, through the engine's journal when there is one."""
        owner = getattr(self, "owner", None)
        if owner is not None:
            owner._release_table(self)
            return
        for part in self.parts:
            part.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ",".join(str(part.num_embeddings) for part in self.parts)
        return f"ShardedTable({self.name!r}, {self.kind}, rows=[{sizes}])"
