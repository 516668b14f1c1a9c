"""gammalint framework behavior: registry, waivers, CLI, tree regression."""

import json
import pathlib

from repro.analysis import (
    Diagnostic,
    WaiverSet,
    all_checkers,
    known_codes,
    lint_paths,
    lint_source,
)
from repro.analysis.__main__ import main

REPO_ROOT = pathlib.Path(__file__).parents[2]


class TestRegistry:
    def test_all_checkers_registered(self):
        names = {c.name for c in all_checkers()}
        assert names == {
            "charge-accounting",
            "determinism",
            "fork-safety",
            "numpy-dtype",
            "obs-span",
            "plan-order",
            "warp-race",
        }

    def test_known_codes_cover_checkers_and_meta(self):
        codes = known_codes()
        assert {"charge", "dtype", "overflow", "warp-race",
                "warp-race-transitive", "obs-span", "planorder",
                "fork-boundary", "fork-state",
                "det-order", "det-float", "det-seed"} <= codes
        assert {"waiver-reason", "waiver-unknown", "waiver-unused",
                "waiver-stale"} <= codes


class TestWaivers:
    def test_missing_reason_is_reported(self):
        src = "x = graph.offsets[v]  # gammalint: allow[charge]\n"
        diags = lint_source(src, path="src/repro/core/w.py")
        assert [d.code for d in diags] == ["waiver-reason"]

    def test_unknown_code_is_reported(self):
        src = "x = 1  # gammalint: allow[made-up] -- because\n"
        codes = [d.code for d in lint_source(src, path="src/repro/core/w.py")]
        assert codes == ["waiver-unknown"]

    def test_unused_waiver_is_reported(self):
        src = "x = 1  # gammalint: allow[charge] -- nothing to waive here\n"
        codes = [d.code for d in lint_source(src, path="src/repro/core/w.py")]
        assert codes == ["waiver-unused"]

    def test_module_waiver_must_be_near_the_top(self):
        src = "\n" * 40 + "# gammalint: module-allow[charge] -- too deep\n"
        codes = [d.code for d in lint_source(src, path="src/repro/core/w.py")]
        assert "waiver-unknown" in codes

    def test_waiver_syntax_inside_strings_is_ignored(self):
        src = '"""# gammalint: allow[bogus]"""\nx = 1\n'
        assert WaiverSet("w.py", src).line_waivers == {}
        assert lint_source(src, path="src/repro/core/w.py") == []

    def test_multi_code_waiver(self):
        src = (
            "import numpy as np\n"
            "def f(graph, v, n):\n"
            "    return graph.offsets[v] * np.int64(n)"
            "  # gammalint: allow[charge, overflow] -- fixture: both invariants hold\n"
        )
        assert lint_source(src, path="src/repro/core/w.py") == []


class TestSelectAndScopes:
    SRC = "def f(graph, v):\n    return graph.offsets[v]\n"

    def test_select_filters_codes(self):
        diags = lint_source(self.SRC, path="src/repro/core/x.py",
                            select=["dtype"])
        assert diags == []
        diags = lint_source(self.SRC, path="src/repro/core/x.py",
                            select=["charge"])
        assert [d.code for d in diags] == ["charge"]

    def test_engine_scope_only(self):
        assert lint_source(self.SRC, path="src/repro/gpusim/x.py") == []

    def test_diagnostics_sort_stably(self):
        a = Diagnostic("a.py", 2, 1, "charge", "m", "c")
        b = Diagnostic("a.py", 1, 1, "dtype", "m", "c")
        assert sorted([a, b]) == [b, a]


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_and_json_lists_them(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f(g, v):\n    return g.offsets[v]\n")
        assert main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["diagnostics"][0]["code"] == "charge"

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["definitely/not/here.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_checkers(self, capsys):
        assert main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        for name in ("charge-accounting", "numpy-dtype", "obs-span",
                     "plan-order", "warp-race", "fork-safety",
                     "determinism"):
            assert name in out

    def test_sarif_output(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f(g, v):\n    return g.offsets[v]\n")
        assert main([str(target), "--format", "sarif"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == "2.1.0"
        run = report["runs"][0]
        assert run["tool"]["driver"]["name"] == "gammalint"
        assert [r["ruleId"] for r in run["results"]] == ["charge"]
        location = run["results"][0]["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 2

    def test_check_waivers_flags_stale_module_waiver(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core" / "stale.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "# gammalint: module-allow[charge] -- nothing here charges\n"
            "x = 1\n")
        assert main([str(target)]) == 0
        assert main([str(target), "--check-waivers"]) == 1
        assert "waiver-stale" in capsys.readouterr().out

    def test_changed_with_bad_ref_degrades_to_full_run(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f(g, v):\n    return g.offsets[v]\n")
        # not a git checkout / bogus ref: warn, then lint everything.
        assert main([str(target), "--changed", "no-such-ref-xyz"]) == 1
        captured = capsys.readouterr()
        assert "linting everything" in captured.err
        assert "charge" in captured.out

    def test_max_seconds_budget(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main([str(target), "--max-seconds", "120"]) == 0
        assert "budget" in capsys.readouterr().err
        assert main([str(target), "--max-seconds", "0.0000001"]) == 3
        assert "TOO SLOW" in capsys.readouterr().err

    def test_syntax_error_is_a_diagnostic(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert main([str(target)]) == 1
        assert "syntax-error" in capsys.readouterr().out


def test_src_tree_is_clean():
    """The acceptance criterion, pinned: the shipped tree lints clean —
    all seven checkers including the interprocedural ones, with the
    stale-waiver audit on."""
    diagnostics = lint_paths(
        [REPO_ROOT / "src"],
        root=REPO_ROOT,
        check_waivers=True,
    )
    assert diagnostics == [], "\n".join(d.format() for d in diagnostics)
