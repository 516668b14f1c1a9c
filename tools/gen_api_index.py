"""Regenerate docs/API.md from the package's public exports.

Run from the repository root:  python tools/gen_api_index.py
(``tests/test_docs.py`` holds the committed file equal to :func:`render`.)
"""

import inspect
import pathlib

import repro
import repro.algorithms
import repro.baselines
import repro.bench
import repro.core
import repro.graph
import repro.gpusim
import repro.obs
import repro.obs.profile
import repro.plan
import repro.resilience
import repro.serve
import repro.shard

MODULES = (
    repro, repro.gpusim, repro.graph, repro.core,
    repro.algorithms, repro.baselines, repro.bench, repro.obs,
    repro.obs.profile, repro.plan, repro.resilience, repro.shard,
    repro.serve,
)


def kind_of(obj) -> str:
    if inspect.ismodule(obj):
        return "module"
    if inspect.isclass(obj):
        return "class"
    if callable(obj):
        return "function"
    return "constant"


#: The generated file.
TARGET = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"


def render() -> str:
    """The index's text, from the modules' ``__all__`` and docstrings."""
    lines = [
        "# API index",
        "",
        "Generated from the package's `__all__` exports "
        "(`python tools/gen_api_index.py` regenerates it).",
        "",
    ]
    for module in MODULES:
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        doc = (module.__doc__ or "").strip().splitlines()
        if doc:
            lines.extend([doc[0], ""])
        lines.append("| name | kind | summary |")
        lines.append("|---|---|---|")
        for name in sorted(getattr(module, "__all__", [])):
            obj = getattr(module, name, None)
            summary = ""
            if obj is not None and not isinstance(
                    obj, (int, float, str, tuple, list, dict, set)):
                docline = (inspect.getdoc(obj) or "").strip().splitlines()
                summary = docline[0] if docline else ""
            summary = summary.replace("|", "/")[:100]
            lines.append(f"| `{name}` | {kind_of(obj)} | {summary} |")
        lines.append("")
    return "\n".join(lines) + "\n"


def main() -> None:
    TARGET.write_text(render())
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
