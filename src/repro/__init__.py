"""GAMMA — a graph pattern mining framework for large graphs on (simulated)
GPU.  Reproduction of Hu, Zou and Özsu, ICDE 2023.

Public API tour:

* :class:`repro.Gamma` / :class:`repro.GammaConfig` — the framework
  (paper Fig. 3's data structures and interfaces);
* :mod:`repro.graph` — CSR graphs, generators, dataset stand-ins, query
  patterns and an exact oracle;
* :mod:`repro.algorithms` — subgraph matching, FPM, k-clique, triangles,
  motifs, each runnable on GAMMA or any baseline;
* :mod:`repro.baselines` — Pangolin, Peregrine, GSI, GraphMiner;
* :mod:`repro.gpusim` — the simulated CPU–GPU platform;
* :mod:`repro.obs` — telemetry: spans, metrics, trace export, manifests;
* :mod:`repro.bench` — the harness regenerating the paper's evaluation.
"""

import importlib

from . import algorithms, baselines, core, errors, graph, gpusim, obs
from .core import Gamma, GammaConfig, MinSupport, PatternTable
from .errors import (
    DeviceOutOfMemory,
    ExecutionError,
    GammaError,
    HostOutOfMemory,
    InvalidGraphError,
    InvalidPatternError,
)
from .graph import CSRGraph, Pattern, from_edge_list, from_edges

__version__ = "1.0.0"


def __getattr__(name: str):
    """``repro.bench`` on first use: the CLI's runs never load the harness."""
    if name != "bench":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.bench")


__all__ = [
    "algorithms",
    "baselines",
    "bench",
    "core",
    "errors",
    "graph",
    "gpusim",
    "obs",
    "Gamma",
    "GammaConfig",
    "MinSupport",
    "PatternTable",
    "DeviceOutOfMemory",
    "ExecutionError",
    "GammaError",
    "HostOutOfMemory",
    "InvalidGraphError",
    "InvalidPatternError",
    "CSRGraph",
    "Pattern",
    "from_edge_list",
    "from_edges",
    "__version__",
]
