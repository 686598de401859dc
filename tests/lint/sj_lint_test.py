#!/usr/bin/env python3
"""Tests for scripts/lint/sj_lint.py.

Each fixture under tests/lint/fixtures/ is an intentionally-violating
"repo" (the fixtures directory is excluded from real lint runs by the
driver's SKIP_DIR_NAMES). The tests pin, per rule: that it fires on the
violation, that near-miss idioms stay clean, and that the
`// sj-lint: allow(rule)` escape hatch works. A final test runs the
driver against the actual repo and requires a clean exit — the same
invocation CI gates on.
"""

import contextlib
import io
import json
import os
import sys
import unittest

TEST_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(TEST_DIR))
FIXTURE_ROOT = os.path.join(TEST_DIR, "fixtures")

sys.path.insert(0, os.path.join(REPO_ROOT, "scripts", "lint"))
import sj_lint  # noqa: E402


def lint(rel_path, rules=None):
    selected = (
        {name: sj_lint.RULES[name] for name in rules}
        if rules else sj_lint.RULES)
    return sj_lint.lint_file(FIXTURE_ROOT, rel_path, selected)


class RawClockTest(unittest.TestCase):
    def test_fires_once_and_respects_suppression(self):
        findings = lint("src/core/bad_clock.cc", ["raw-clock"])
        self.assertEqual([f.line for f in findings], [11])
        self.assertEqual(findings[0].rule, "raw-clock")

    def test_timer_header_is_exempt(self):
        f = sj_lint.SourceFile(
            "src/obs/timer.h",
            ["std::chrono::steady_clock::now();"],
            ["std::chrono::steady_clock::now();"])
        self.assertEqual(list(sj_lint.check_raw_clock(f)), [])


class NakedNewTest(unittest.TestCase):
    def test_fires_on_new_and_delete_only(self):
        findings = lint("src/core/bad_new.cc", ["naked-new"])
        self.assertEqual([f.line for f in findings], [11, 13])

    def test_storage_is_exempt(self):
        f = sj_lint.SourceFile(
            "src/storage/frames.cc", ["int* p = new int;"],
            ["int* p = new int;"])
        self.assertEqual(list(sj_lint.check_naked_new(f)), [])


class StdoutInLibTest(unittest.TestCase):
    def test_fires_on_cout_and_printf_only(self):
        findings = lint("src/core/bad_stdout.cc", ["stdout-in-lib"])
        self.assertEqual([f.line for f in findings], [9, 10])

    def test_bench_is_exempt(self):
        f = sj_lint.SourceFile(
            "bench/b.cc", ['std::cout << "row\\n";'],
            ['std::cout << "row\\n";'])
        self.assertEqual(list(sj_lint.check_stdout_in_lib(f)), [])


class StderrInLibTest(unittest.TestCase):
    def test_fires_on_cerr_and_fprintf_stderr_only(self):
        findings = lint("src/core/bad_stderr.cc", ["stderr-in-lib"])
        self.assertEqual([f.line for f in findings], [10, 11, 12])
        self.assertEqual({f.rule for f in findings}, {"stderr-in-lib"})

    def test_non_library_code_is_exempt(self):
        for path in ("tools/sj_inspect.cc", "tests/t.cc", "bench/b.cc"):
            f = sj_lint.SourceFile(
                path, ['std::fprintf(stderr, "x");'],
                ['std::fprintf(stderr, "x");'])
            self.assertEqual(list(sj_lint.check_stderr_in_lib(f)), [])


class DetailIncludeTest(unittest.TestCase):
    def test_fires_only_on_unfriended_cross_subsystem_include(self):
        findings = lint("src/exec/bad_detail.cc", ["detail-include"])
        self.assertEqual([f.line for f in findings], [6])
        self.assertIn("rtree", findings[0].message)


class DcheckSideEffectTest(unittest.TestCase):
    def test_fires_on_mutating_conditions_only(self):
        findings = lint("src/core/bad_dcheck.cc", ["dcheck-side-effect"])
        self.assertEqual([f.line for f in findings], [8, 9])


class IostreamInLibTest(unittest.TestCase):
    def test_fires_on_include_and_respects_suppression(self):
        findings = lint("src/core/bad_iostream.cc", ["iostream-in-lib"])
        self.assertEqual([f.line for f in findings], [6, 7])
        self.assertEqual({f.rule for f in findings}, {"iostream-in-lib"})

    def test_non_library_code_is_exempt(self):
        for path in ("bench/b.cc", "tools/sj_inspect.cc", "examples/e.cc"):
            f = sj_lint.SourceFile(
                path, ["#include <iostream>"], ["#include <iostream>"])
            self.assertEqual(
                list(sj_lint.check_iostream_in_lib(f)), [])


class MetricsInServerTest(unittest.TestCase):
    def test_fires_on_registry_access_and_respects_suppression(self):
        findings = lint("src/server/bad_metrics.cc", ["metrics-in-server"])
        self.assertEqual([f.line for f in findings], [14, 15, 17, 19])
        self.assertEqual({f.rule for f in findings}, {"metrics-in-server"})

    def test_telemetry_owner_and_other_layers_are_exempt(self):
        line = 'MetricsRegistry::Global().GetCounter("x");'
        for path in ("src/server/telemetry.cc", "src/storage/pool.cc",
                     "tools/sj_server.cc", "tests/t.cc"):
            f = sj_lint.SourceFile(path, [line], [line])
            self.assertEqual(
                list(sj_lint.check_metrics_in_server(f)), [], path)

    def test_telemetry_facade_calls_stay_clean(self):
        line = "ServiceTelemetry::Global().OnSessionOpened();"
        f = sj_lint.SourceFile("src/server/session.cc", [line], [line])
        self.assertEqual(list(sj_lint.check_metrics_in_server(f)), [])


class JsonOutputTest(unittest.TestCase):
    """The --json schema is shared with sj_analyze: exactly
    {rule, path, line, message, suppressed}, suppressed findings
    included, exit code driven by unsuppressed findings only."""

    def run_json(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sj_lint.main(list(argv))
        return code, json.loads(out.getvalue())

    def test_schema_and_suppressed_flag(self):
        code, findings = self.run_json(
            "--root", FIXTURE_ROOT, "--rule", "iostream-in-lib",
            "--json", "src/core/bad_iostream.cc")
        self.assertEqual(code, 1)
        self.assertEqual(len(findings), 3)
        for f in findings:
            self.assertEqual(
                sorted(f.keys()),
                ["line", "message", "path", "rule", "suppressed"])
        self.assertEqual([f["suppressed"] for f in findings],
                         [False, False, True])

    def test_all_suppressed_exits_zero(self):
        code, findings = self.run_json(
            "--root", REPO_ROOT, "--json", "src")
        self.assertEqual(code, 0)
        self.assertTrue(all(f["suppressed"] for f in findings))


class SuppressionSyntaxTest(unittest.TestCase):
    def test_same_line_and_preceding_line_and_multi_rule(self):
        raw = [
            "int* a = new int;  // sj-lint: allow(naked-new)",
            "// sj-lint: allow(naked-new, raw-clock)",
            "int* b = new int;",
            "int* c = new int;",
        ]
        self.assertEqual(
            sj_lint.allowed_rules(raw, 1), {"naked-new"})
        self.assertEqual(
            sj_lint.allowed_rules(raw, 3), {"naked-new", "raw-clock"})
        self.assertEqual(sj_lint.allowed_rules(raw, 4), set())


class StripperTest(unittest.TestCase):
    def test_block_comments_and_strings(self):
        code = sj_lint.strip_comments_and_strings([
            "int x; /* new int",
            "still comment */ int y = 1;",
            'const char* s = "delete this";',
        ])
        self.assertNotIn("new", code[0])
        self.assertIn("int y = 1;", code[1])
        self.assertNotIn("delete", code[2])


class RepoIsCleanTest(unittest.TestCase):
    def test_main_on_repo_exits_zero(self):
        self.assertEqual(sj_lint.main(["--root", REPO_ROOT]), 0)


class CliTest(unittest.TestCase):
    def test_unknown_rule_is_usage_error(self):
        self.assertEqual(
            sj_lint.main(["--rule", "no-such-rule",
                          "--root", REPO_ROOT]), 2)

    def test_missing_path_is_usage_error(self):
        self.assertEqual(
            sj_lint.main(["--root", REPO_ROOT, "does/not/exist.cc"]), 2)

    def test_fixture_scan_exits_one(self):
        self.assertEqual(sj_lint.main(["--root", FIXTURE_ROOT, "src"]), 1)


if __name__ == "__main__":
    unittest.main()
