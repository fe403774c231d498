#!/usr/bin/env python3
"""Tests for tools/analyzer/hattrick_analyzer.py.

Same shape as lint_test.py: one positive and one negative fixture per
pass under tests/analyzer_fixtures/ (fixtures mirror repo paths because
the pin and determinism passes are path-scoped, resolved against
--repo-root), plus CLI behavior, lint:allow suppression, the whole-tree
clean run, and the BTree::CopyFrom self-test from the PR's acceptance
criteria: stripping the address-ordering conditional out of the real
btree.cc must make the lock-order pass report the cycle with witness
paths.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.normpath(os.path.join(TESTS_DIR, ".."))
FIXTURES = os.path.join(TESTS_DIR, "analyzer_fixtures")
ANALYZER = os.path.join(REPO_ROOT, "tools", "analyzer",
                        "hattrick_analyzer.py")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools", "analyzer"))
import hattrick_analyzer  # noqa: E402


def analyze(rels, repo_root=FIXTURES):
    """Analyzes fixture files; returns the list of Finding objects."""
    paths = [os.path.join(repo_root, rel) for rel in rels]
    program = hattrick_analyzer.load_program(paths, repo_root)
    findings = []
    for _, run in hattrick_analyzer.PASSES.items():
        findings.extend(run(program))
    findings.sort(key=hattrick_analyzer.Finding.key)
    return findings


def fired(findings):
    return {(f.line, f.rule) for f in findings}


class LockOrderPassTest(unittest.TestCase):
    def test_cycle_fires_with_both_witnesses(self):
        findings = analyze(["src/storage/lock_cycle_bad.cc"])
        self.assertEqual({f.rule for f in findings}, {"lock-order-cycle"})
        self.assertEqual(len(findings), 1)
        msg = findings[0].message
        # Both witness acquisition paths are present: one per direction.
        self.assertIn("PairState::FrontFirst", msg)
        self.assertIn("PairState::BackFirst", msg)
        self.assertIn("PairState::front_mu_", msg)
        self.assertIn("PairState::back_mu_", msg)

    def test_consistent_order_and_address_idiom_are_silent(self):
        self.assertEqual(analyze(["src/storage/lock_cycle_ok.cc"]), [])


class UnpinnedSnapshotPassTest(unittest.TestCase):
    def test_unpinned_read_fires(self):
        findings = analyze(["src/engine/unpinned_bad.cc"])
        self.assertEqual({f.rule for f in findings}, {"unpinned-snapshot"})
        self.assertEqual([f.line for f in findings], [12])
        self.assertIn("Scanner::ScanWithoutPin", findings[0].message)

    def test_latched_and_pinned_reads_are_silent(self):
        self.assertEqual(analyze(["src/engine/pinned_ok.cc"]), [])

    def test_only_the_row_latch_covers_only_row_chains(self):
        # A head.load under another mutex, and a column snapshot under
        # the row latch, both still fire.
        findings = analyze(["src/engine/latch_bad.cc"])
        self.assertEqual({f.rule for f in findings}, {"unpinned-snapshot"})
        self.assertEqual([f.line for f in findings], [15, 20])
        self.assertIn("RowTable::ReadUnderOtherMutex", findings[0].message)
        self.assertIn("RowTable::ColumnReadUnderRowLatch",
                      findings[1].message)

    def test_read_in_for_init_fires(self):
        # The for header is walked like the body: an unlatched head.load
        # in a for-init fires, a latched one does not.
        findings = analyze(["src/storage/for_init_bad.cc"])
        self.assertEqual({f.rule for f in findings}, {"unpinned-snapshot"})
        self.assertEqual([f.line for f in findings], [15])
        self.assertIn("RowTable::AnyPending ", findings[0].message)

    def test_pin_region_is_path_scoped(self):
        # The identical file outside src/engine|shard|storage is silent.
        with tempfile.TemporaryDirectory() as tmp:
            dst = os.path.join(tmp, "src", "hattrick")
            os.makedirs(dst)
            shutil.copy(
                os.path.join(FIXTURES, "src/engine/unpinned_bad.cc"),
                os.path.join(dst, "unpinned_bad.cc"))
            findings = analyze(["src/hattrick/unpinned_bad.cc"],
                               repo_root=tmp)
            self.assertEqual(findings, [])


class UnorderedIterationPassTest(unittest.TestCase):
    def test_unordered_iteration_fires_for_both_loop_forms(self):
        findings = analyze(["src/obs/export_unordered_bad.cc"])
        self.assertEqual({f.rule for f in findings},
                         {"unordered-iteration"})
        self.assertEqual([f.line for f in findings], [12, 19])
        self.assertIn("range-for", findings[0].message)
        self.assertIn("begin", findings[1].message)

    def test_local_unordered_map_fires(self):
        # A function-local declaration resolves like a member one.
        findings = analyze(["src/obs/metrics.cc"])
        self.assertEqual({f.rule for f in findings},
                         {"unordered-iteration"})
        self.assertEqual([f.line for f in findings], [9])

    def test_ordered_iteration_is_silent(self):
        self.assertEqual(analyze(["src/obs/export_ordered_ok.cc"]), [])

    def test_whole_src_tree_is_clean(self):
        # Every src/ header and TU, independent of any compile database:
        # keeps the real export paths free of hash-ordered iteration.
        rels = []
        for root, _, names in os.walk(os.path.join(REPO_ROOT, "src")):
            for name in names:
                if name.endswith((".h", ".cc")):
                    rels.append(os.path.relpath(os.path.join(root, name),
                                                REPO_ROOT))
        self.assertGreater(len(rels), 0)
        self.assertEqual(analyze(sorted(rels), repo_root=REPO_ROOT), [])

    def test_determinism_scope_is_path_scoped(self):
        # The identical iteration outside the determinism TUs is silent.
        with tempfile.TemporaryDirectory() as tmp:
            dst = os.path.join(tmp, "src", "engine")
            os.makedirs(dst)
            shutil.copy(
                os.path.join(FIXTURES, "src/obs/export_unordered_bad.cc"),
                os.path.join(dst, "export_unordered_bad.cc"))
            findings = analyze(["src/engine/export_unordered_bad.cc"],
                               repo_root=tmp)
            self.assertEqual(findings, [])


class SwitchExhaustivePassTest(unittest.TestCase):
    def test_missing_enumerator_and_default_fire(self):
        findings = analyze(["src/txn/switch_bad.cc"])
        self.assertEqual({f.rule for f in findings}, {"switch-exhaustive"})
        by_line = {f.line: f.message for f in findings}
        self.assertEqual(sorted(by_line), [14, 26])
        self.assertIn("kDelta", by_line[14])
        self.assertIn("default", by_line[26])

    def test_exhaustive_switch_is_silent(self):
        self.assertEqual(analyze(["src/txn/switch_ok.cc"]), [])


class SuppressionTest(unittest.TestCase):
    def test_lint_allow_suppresses_on_the_reported_line(self):
        with tempfile.TemporaryDirectory() as tmp:
            dst = os.path.join(tmp, "src", "engine")
            os.makedirs(dst)
            src = os.path.join(FIXTURES, "src/engine/unpinned_bad.cc")
            with open(src) as f:
                content = f.read()
            content = content.replace(
                "auto snap = column->SnapshotVersions();",
                "auto snap = column->SnapshotVersions();  "
                "// lint:allow(unpinned-snapshot) fixture exercising the "
                "escape hatch")
            with open(os.path.join(dst, "unpinned_bad.cc"), "w") as f:
                f.write(content)
            findings = analyze(["src/engine/unpinned_bad.cc"],
                               repo_root=tmp)
            self.assertEqual(findings, [])


class CopyFromSelfTest(unittest.TestCase):
    """The acceptance-criteria self-test (DESIGN.md §8): deleting the
    address ordering in the real BTree::CopyFrom must surface the
    self-cycle on BTree::latch_ with witness paths."""

    ORDERED = """  if (this < &other) {
    latch_.Lock();
    other.latch_.LockShared();
  } else {
    other.latch_.LockShared();
    latch_.Lock();
  }
"""
    BROKEN = """  latch_.Lock();
  other.latch_.LockShared();
"""

    def test_stripping_address_order_reports_cycle(self):
        with open(os.path.join(REPO_ROOT, "src/storage/btree.cc")) as f:
            src = f.read()
        self.assertIn(self.ORDERED, src,
                      "btree.cc no longer matches the self-test template; "
                      "update CopyFromSelfTest alongside it")
        with open(os.path.join(REPO_ROOT, "src/storage/btree.h")) as f:
            hdr = f.read()
        with tempfile.TemporaryDirectory() as tmp:
            dst = os.path.join(tmp, "src", "storage")
            os.makedirs(dst)
            with open(os.path.join(dst, "btree.h"), "w") as f:
                f.write(hdr)
            with open(os.path.join(dst, "btree.cc"), "w") as f:
                f.write(src.replace(self.ORDERED, self.BROKEN))
            findings = analyze(
                ["src/storage/btree.h", "src/storage/btree.cc"],
                repo_root=tmp)
            cycles = [f for f in findings if f.rule == "lock-order-cycle"]
            self.assertEqual(len(cycles), 1)
            msg = cycles[0].message
            self.assertIn("BTree::latch_", msg)
            self.assertIn("witness", msg)
            self.assertIn("second witness", msg)

    def test_intact_tree_has_no_cycle(self):
        findings = analyze(
            ["src/storage/btree.h", "src/storage/btree.cc"],
            repo_root=REPO_ROOT)
        self.assertEqual(
            [f for f in findings if f.rule == "lock-order-cycle"], [])


class CliTest(unittest.TestCase):
    def run_analyzer(self, args):
        return subprocess.run(
            [sys.executable, ANALYZER] + args,
            capture_output=True, text=True, check=False,
        )

    def test_tree_is_clean(self):
        proc = self.run_analyzer([])
        self.assertEqual(proc.returncode, 0,
                         f"tree has analyzer findings:\n{proc.stdout}")
        self.assertEqual(proc.stdout, "")

    def test_bad_fixture_exits_nonzero(self):
        proc = self.run_analyzer([
            "--repo-root", FIXTURES,
            os.path.join(FIXTURES, "src/storage/lock_cycle_bad.cc"),
        ])
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[lock-order-cycle]", proc.stdout)

    def test_rules_subset_runs_only_selected(self):
        proc = self.run_analyzer([
            "--repo-root", FIXTURES,
            "--rules", "switch-exhaustive",
            os.path.join(FIXTURES, "src/storage/lock_cycle_bad.cc"),
        ])
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_unknown_rule_is_usage_error(self):
        proc = self.run_analyzer(["--rules", "no-such-rule"])
        self.assertEqual(proc.returncode, 2)

    def test_list_rules(self):
        proc = self.run_analyzer(["--list-rules"])
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(
            proc.stdout.split(),
            ["lock-order-cycle", "unpinned-snapshot",
             "unordered-iteration", "switch-exhaustive"],
        )


if __name__ == "__main__":
    unittest.main()
