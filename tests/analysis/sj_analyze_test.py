#!/usr/bin/env python3
"""Self-tests for scripts/analysis/sj_analyze.py.

Each checker is exercised both ways: it must fire on a known-bad fixture
and stay silent on the matching control. The last tests run the analyzer
over the real repository — the tree must be clean modulo the reviewed
baseline, and the signal-safety closure must demonstrably cover the
flight recorder's installed fatal-signal handler.
"""

import contextlib
import io
import json
import os
import sys
import unittest

TEST_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(TEST_DIR))
FIXTURES = os.path.join(TEST_DIR, "fixtures")
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts", "analysis"))

import sj_analyze  # noqa: E402


def run_fixture(fixture, *extra_args):
    """Runs sj_analyze on a fixture root; returns (exit code, findings)."""
    root = os.path.join(FIXTURES, fixture)
    argv = ["--root", root, "--frontend", "textual", "--no-cache",
            "--no-baseline", "--json"] + list(extra_args)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sj_analyze.main(argv)
    return code, json.loads(out.getvalue())


def rules_of(findings):
    return sorted({f["rule"] for f in findings})


class SignalSafetyTest(unittest.TestCase):
    def test_bad_handler_fires_all_rules(self):
        code, findings = run_fixture("signal_bad", "--checks",
                                     "signal-safety")
        self.assertEqual(code, 1)
        rules = rules_of(findings)
        self.assertIn("signal-alloc", rules)
        self.assertIn("signal-lock", rules)
        self.assertIn("signal-unsafe-call", rules)
        # The allocation lives in GrowScratch, reached *through* the
        # handler — transitive attribution must name the callee.
        allocs = [f for f in findings if f["rule"] == "signal-alloc"]
        self.assertTrue(any("GrowScratch" in f["message"] for f in allocs),
                        allocs)
        banned = [f for f in findings if f["rule"] == "signal-unsafe-call"]
        self.assertTrue(any("fprintf" in f["message"] for f in banned),
                        banned)

    def test_good_handler_is_clean(self):
        code, findings = run_fixture("signal_good", "--checks",
                                     "signal-safety")
        self.assertEqual(code, 0)
        self.assertEqual(findings, [])

    def test_missing_handler_is_reported(self):
        code, findings = run_fixture("signal_no_root", "--checks",
                                     "signal-safety")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(findings), ["signal-no-root"])

    def test_reachability_covers_transitive_callees(self):
        root = os.path.join(FIXTURES, "signal_good")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sj_analyze.main(
                ["--root", root, "--frontend", "textual", "--no-cache",
                 "--dump-reachable", "signal-safety"])
        self.assertEqual(code, 0)
        dump = json.loads(out.getvalue())
        self.assertIn("GoodHandler", dump["handler_roots"])
        self.assertTrue(any("GoodHandler" in q for q in dump["reachable"]))
        self.assertTrue(any("EmitBanner" in q for q in dump["reachable"]),
                        dump["reachable"])


class LockOrderTest(unittest.TestCase):
    def test_abba_cycle_detected(self):
        code, findings = run_fixture("lock_cycle", "--checks", "lock-order")
        self.assertEqual(code, 1)
        self.assertIn("lock-cycle", rules_of(findings))
        cycles = [f for f in findings if f["rule"] == "lock-cycle"]
        self.assertTrue(any("Pair::a" in f["message"] and
                            "Pair::b" in f["message"] for f in cycles),
                        cycles)

    def test_documented_order_violation(self):
        code, findings = run_fixture(
            "lock_inversion", "--checks", "lock-order",
            "--order", "BufferPool::mu_,DiskManager::mu_")
        self.assertEqual(code, 1)
        violations = [f for f in findings
                      if f["rule"] == "lock-order-violation"]
        self.assertTrue(violations, findings)
        self.assertIn("BufferPool::mu_", violations[0]["message"])
        self.assertIn("DiskManager::mu_", violations[0]["message"])

    def test_excludes_annotation_enforced_interprocedurally(self):
        code, findings = run_fixture("lock_excludes", "--checks",
                                     "lock-order")
        self.assertEqual(code, 1)
        self.assertIn("lock-excludes-violation", rules_of(findings))

    def test_consistent_hierarchy_is_clean(self):
        code, findings = run_fixture(
            "lock_good", "--checks", "lock-order",
            "--order", "Outer::mu_,Inner::mu_")
        self.assertEqual(code, 0)
        self.assertEqual(findings, [])


class HotPathTest(unittest.TestCase):
    def test_impure_hot_function_fires_all_rules(self):
        code, findings = run_fixture("hot_bad", "--checks", "hot-path")
        self.assertEqual(code, 1)
        rules = rules_of(findings)
        for rule in ("hot-alloc", "hot-lock", "hot-throw",
                     "hot-virtual-call"):
            self.assertIn(rule, rules)
        # Transitive: the helper's allocation is attributed with the
        # chain from the SJ_HOT root.
        allocs = [f for f in findings if f["rule"] == "hot-alloc"]
        self.assertTrue(any("GrowBuffer" in f["message"] and
                            "HotViaHelper" in f["message"]
                            for f in allocs), allocs)

    def test_pure_hot_function_is_clean(self):
        code, findings = run_fixture("hot_good", "--checks", "hot-path")
        self.assertEqual(code, 0)
        self.assertEqual(findings, [])


class BaselineTest(unittest.TestCase):
    def test_baseline_suppresses_and_flips_exit_code(self):
        import tempfile
        code, findings = run_fixture("hot_good", "--checks", "hot-path")
        self.assertEqual(findings, [])
        # Baseline every hot_bad finding; the run must then exit 0 with
        # every finding still present in JSON but marked suppressed.
        code, findings = run_fixture("hot_bad", "--checks", "hot-path")
        self.assertEqual(code, 1)
        with tempfile.TemporaryDirectory() as tmp:
            baseline_path = os.path.join(tmp, "baseline.json")
            root = os.path.join(FIXTURES, "hot_bad")
            with contextlib.redirect_stdout(io.StringIO()):
                sj_analyze.main(
                    ["--root", root, "--frontend", "textual", "--no-cache",
                     "--checks", "hot-path", "--baseline", baseline_path,
                     "--write-baseline"])
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = sj_analyze.main(
                    ["--root", root, "--frontend", "textual", "--no-cache",
                     "--checks", "hot-path", "--baseline", baseline_path,
                     "--json"])
            self.assertEqual(code, 0)
            suppressed = json.loads(out.getvalue())
            self.assertTrue(suppressed)
            self.assertTrue(all(f["suppressed"] for f in suppressed))

    def test_json_schema_matches_sj_lint(self):
        _code, findings = run_fixture("hot_bad", "--checks", "hot-path")
        self.assertTrue(findings)
        for finding in findings:
            self.assertEqual(sorted(finding.keys()),
                             ["line", "message", "path", "rule",
                              "suppressed"])


class WireTaintTest(unittest.TestCase):
    def test_direct_flow_fires_on_both_sinks(self):
        code, findings = run_fixture("taint_bad_direct", "--checks",
                                     "wire-taint")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(findings), ["wire-taint"])
        sinks = sorted(f["message"].split(" reaches ")[1].split(" in ")[0]
                       for f in findings)
        self.assertEqual(sinks, ["at argument", "resize argument"])

    def test_interprocedural_sink_attributed_through_helper(self):
        code, findings = run_fixture("taint_bad_interproc", "--checks",
                                     "wire-taint")
        self.assertEqual(code, 1)
        self.assertEqual(len(findings), 1)
        # The memcpy lives in CopyInto; the finding must land at the
        # tainted call site in HandleFrame and name the helper.
        self.assertIn("HandleFrame", findings[0]["message"])
        self.assertIn("via CopyInto", findings[0]["message"])
        self.assertIn("memcpy", findings[0]["message"])

    def test_taint_survives_outparam_and_return(self):
        code, findings = run_fixture("taint_bad_outparam", "--checks",
                                     "wire-taint")
        self.assertEqual(code, 1)
        self.assertEqual(len(findings), 1)
        self.assertIn("BuildTable", findings[0]["message"])
        self.assertIn("reserve", findings[0]["message"])

    def test_one_line_body_sees_its_heads_outparam(self):
        # `while (d.Next(&f)) Handle(f);`: the head's call runs first, so
        # its out-parameter taint reaches the body's call on that line.
        code, findings = run_fixture("taint_bad_oneline", "--checks",
                                     "wire-taint")
        self.assertEqual(code, 1)
        self.assertEqual(sorted(f["message"].split(" in ")[1].split(" ")[0]
                                for f in findings), ["Pump", "PumpOne"])
        for finding in findings:
            self.assertIn("via HandleFrame", finding["message"])
            self.assertIn("reserve", finding["message"])

    def test_lambda_captures_do_not_taint_the_assignment(self):
        # `int slots = Submit([request_id] {...});` taints nothing: the
        # capture feeds the lambda's body, not Submit's result.
        code, findings = run_fixture("taint_good_lambda", "--checks",
                                     "wire-taint")
        self.assertEqual(code, 0)
        self.assertEqual(findings, [])

    def test_sanitized_flows_are_clean(self):
        code, findings = run_fixture("taint_good", "--checks", "wire-taint")
        self.assertEqual(code, 0)
        self.assertEqual(findings, [])

    def test_missing_source_is_reported(self):
        code, findings = run_fixture("taint_no_source", "--checks",
                                     "wire-taint")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(findings), ["wire-taint-no-source"])


class BlockingUnderLockTest(unittest.TestCase):
    def test_send_under_lock_fires(self):
        code, findings = run_fixture("block_bad_direct", "--checks",
                                     "blocking-under-lock")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(findings), ["lock-blocking-call"])
        self.assertIn("Conn::Reply", findings[0]["message"])
        self.assertIn("send", findings[0]["message"])
        self.assertIn("Conn::mu_", findings[0]["message"])

    def test_blocking_leaf_witnessed_transitively(self):
        code, findings = run_fixture("block_bad_transitive", "--checks",
                                     "blocking-under-lock")
        self.assertEqual(code, 1)
        # fwrite sits inside AppendRecord; the finding lands at the
        # locked call site in Commit with the leaf as witness.
        self.assertTrue(any("Journal::Commit" in f["message"] and
                            "fwrite" in f["message"] for f in findings),
                        findings)
        self.assertTrue(any("fflush" in f["message"] for f in findings),
                        findings)

    def test_sj_blocking_annotation_is_a_sink(self):
        code, findings = run_fixture("block_bad_annotated", "--checks",
                                     "blocking-under-lock")
        self.assertEqual(code, 1)
        self.assertEqual(len(findings), 1)
        self.assertIn("PostTask", findings[0]["message"])
        self.assertIn("Scheduler::mu_", findings[0]["message"])

    def test_condvar_release_and_scope_close_are_clean(self):
        code, findings = run_fixture("block_good", "--checks",
                                     "blocking-under-lock")
        self.assertEqual(code, 0)
        self.assertEqual(findings, [])


class CancellationTest(unittest.TestCase):
    def test_unpolled_loop_under_dispatch_fires(self):
        code, findings = run_fixture("cancel_bad_loop", "--checks",
                                     "cancellation")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(findings), ["cancel-unpolled-loop"])
        self.assertIn("RunQuery", findings[0]["message"])

    def test_deep_loop_attributed_with_call_chain(self):
        code, findings = run_fixture("cancel_bad_deep", "--checks",
                                     "cancellation")
        self.assertEqual(code, 1)
        self.assertEqual(len(findings), 1)
        self.assertIn("DrainRun", findings[0]["message"])
        self.assertIn("Submit -> Execute -> ScanPartition -> DrainRun",
                      findings[0]["message"])

    def test_bounded_marker_claims_only_innermost_loop(self):
        code, findings = run_fixture("cancel_bad_nested", "--checks",
                                     "cancellation")
        self.assertEqual(code, 1)
        # The inner drain loop is marked; only the outer sweep fires.
        self.assertEqual(len(findings), 1)
        self.assertIn("Sweep", findings[0]["message"])

    def test_poll_marker_and_transitive_poll_are_clean(self):
        code, findings = run_fixture("cancel_good", "--checks",
                                     "cancellation")
        self.assertEqual(code, 0)
        self.assertEqual(findings, [])

    def test_missing_dispatch_is_reported(self):
        code, findings = run_fixture("cancel_no_root", "--checks",
                                     "cancellation")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(findings), ["cancel-no-root"])


class StaleBaselineTest(unittest.TestCase):
    def test_stale_entry_fails_the_run(self):
        """A baseline entry whose rule belongs to a checker that ran but
        matches no current finding must itself become a finding."""
        import tempfile
        root = os.path.join(FIXTURES, "block_good")
        stale = {
            "version": 1,
            "entries": [{
                "rule": "lock-blocking-call",
                "symbol": "Conn::Reply",
                "detail": "send:Conn::mu_",
                "justification": "fixed long ago; entry left behind",
            }],
        }
        with tempfile.TemporaryDirectory() as tmp:
            baseline_path = os.path.join(tmp, "baseline.json")
            with open(baseline_path, "w", encoding="utf-8") as f:
                json.dump(stale, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = sj_analyze.main(
                    ["--root", root, "--frontend", "textual", "--no-cache",
                     "--checks", "blocking-under-lock",
                     "--baseline", baseline_path, "--json"])
            self.assertEqual(code, 1)
            findings = json.loads(out.getvalue())
            self.assertEqual(rules_of(findings), ["baseline-stale"])
            self.assertIn("Conn::Reply", findings[0]["message"])

    def test_entry_for_unrun_checker_is_not_stale(self):
        """Running only wire-taint must not condemn lock entries — their
        checker produced no findings to match against."""
        import tempfile
        root = os.path.join(FIXTURES, "taint_good")
        unrelated = {
            "version": 1,
            "entries": [{
                "rule": "lock-blocking-call",
                "symbol": "Conn::Reply",
                "detail": "send:Conn::mu_",
                "justification": "owned by a checker not running here",
            }],
        }
        with tempfile.TemporaryDirectory() as tmp:
            baseline_path = os.path.join(tmp, "baseline.json")
            with open(baseline_path, "w", encoding="utf-8") as f:
                json.dump(unrelated, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = sj_analyze.main(
                    ["--root", root, "--frontend", "textual", "--no-cache",
                     "--checks", "wire-taint",
                     "--baseline", baseline_path, "--json"])
            self.assertEqual(code, 0)
            self.assertEqual(json.loads(out.getvalue()), [])


class RealRepoTest(unittest.TestCase):
    def test_repo_is_clean_modulo_baseline(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sj_analyze.main(
                ["--root", REPO_ROOT, "--frontend", "textual",
                 "--no-cache"])
        self.assertEqual(code, 0, out.getvalue())

    def test_signal_closure_covers_flight_recorder_handler(self):
        """The acceptance criterion: the checker's closure demonstrably
        starts at the installed fatal-signal handler and spans the whole
        dump pipeline."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sj_analyze.main(
                ["--root", REPO_ROOT, "--frontend", "textual", "--no-cache",
                 "--dump-reachable", "signal-safety"])
        self.assertEqual(code, 0)
        dump = json.loads(out.getvalue())
        self.assertIn("OnFatalSignal", dump["handler_roots"])
        for expected in ("OnFatalSignal", "ClaimDumpFlag",
                         "WriteDumpToPath", "WriteDump",
                         "WriteEventsSection", "WriteSpansSection",
                         "WriteMetricsSection", "SignalName"):
            self.assertTrue(
                any(q.endswith(expected) or ("::" + expected) in q
                    or q == expected for q in dump["reachable"]),
                "expected %s in signal closure, got %d functions"
                % (expected, len(dump["reachable"])))


class DataflowCoverageTest(unittest.TestCase):
    """Acceptance guards: the annotations provably cover the surfaces
    the checkers claim to protect, so a new decoder or join strategy
    cannot silently fall outside the analysis."""

    @staticmethod
    def dump(kind):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sj_analyze.main(
                ["--root", REPO_ROOT, "--frontend", "textual", "--no-cache",
                 "--dump-reachable", kind])
        return code, json.loads(out.getvalue())

    def test_every_wire_reader_accessor_is_annotated(self):
        """Every WireReader accessor defined in protocol.cc must be an
        SJ_UNTRUSTED source or an SJ_VALIDATES sanitizer. The method
        list is re-derived from the source text, so adding an accessor
        without an annotation fails here."""
        import re
        code, dump = self.dump("wire-taint")
        self.assertEqual(code, 0)
        covered = set(dump["sources"]) | set(dump["sanitizers"])
        protocol = os.path.join(REPO_ROOT, "src", "server", "protocol.cc")
        with open(protocol, encoding="utf-8") as f:
            text = f.read()
        accessors = set(re.findall(r"\bbool\s+(Read\w+)\s*\(", text))
        self.assertTrue(accessors, "WireReader accessors not found")
        for name in sorted(accessors):
            qual = "spatialjoin::server::WireReader::" + name
            self.assertIn(qual, covered,
                          "%s is not SJ_UNTRUSTED/SJ_VALIDATES" % qual)
        # The raw little-endian loaders feeding the accessors are
        # sources too.
        self.assertIn("spatialjoin::server::LoadU32", dump["sources"])
        self.assertIn("spatialjoin::server::LoadU64", dump["sources"])

    def test_request_decoders_are_sanitizers(self):
        code, dump = self.dump("wire-taint")
        self.assertEqual(code, 0)
        for name in ("DecodeSelectRequest", "DecodeJoinRequest",
                     "DecodeCancelRequest", "DecodeReply"):
            self.assertIn("spatialjoin::server::" + name,
                          dump["sanitizers"])

    def test_cancellation_closure_covers_query_engine(self):
        """Every SELECT/JOIN strategy the scheduler can dispatch must be
        inside the cancellation closure — otherwise its loops are never
        checked for polls."""
        code, dump = self.dump("cancellation")
        self.assertEqual(code, 0)
        self.assertEqual(dump["dispatch"],
                         ["spatialjoin::server::QueryScheduler::Submit"])
        covered = set(dump["covered"])
        for expected in ("spatialjoin::DispatchSelect",
                         "spatialjoin::DispatchJoin",
                         "spatialjoin::SpatialSelect",
                         "spatialjoin::NestedLoopJoin",
                         "spatialjoin::IndexNestedLoopJoin",
                         "spatialjoin::SortMergeZOrderJoin",
                         "spatialjoin::TreeJoin",
                         "spatialjoin::LocalJoinIndex::Execute",
                         "spatialjoin::exec::PartitionedJoin",
                         "spatialjoin::exec::ParallelTreeJoin",
                         "spatialjoin::exec::FlatSelect",
                         "spatialjoin::exec::RunPairRows",
                         "spatialjoin::exec::ScanBelow",
                         "spatialjoin::exec::SelectRun"):
            self.assertIn(expected, covered)

    def test_session_reply_path_has_no_blocking_under_lock(self):
        """Only the I/O loop sends, from Session::Flush, with no session
        mutex held. The dump must show the send path is still blocking
        (the checker sees it) while the repo run stays clean (nothing
        holds a lock across it)."""
        code, dump = self.dump("blocking-under-lock")
        self.assertEqual(code, 0)
        blocking = dump["blocking"]
        flush = [q for q in blocking
                 if q.endswith("Session::Flush")]
        self.assertTrue(flush, sorted(blocking)[:20])
        self.assertIn("send", blocking[flush[0]])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sj_analyze.main(
                ["--root", REPO_ROOT, "--frontend", "textual", "--no-cache",
                 "--no-baseline", "--json",
                 "--checks", "blocking-under-lock"])
        findings = [f for f in json.loads(out.getvalue())
                    if "Session::" in f["message"]]
        self.assertEqual(findings, [])


if __name__ == "__main__":
    unittest.main()
