#!/usr/bin/env python3
"""Tests for tools/lint/hattrick_lint.py.

Each fixture under tests/lint_fixtures/ mirrors a repo path (the linter's
path-scoped rules resolve against --repo-root, which these tests point at
the fixture directory) and exercises one behavior: every rule fires on
its bad fixture, lint:allow() suppresses per-line, comments and string
literals never fire (env-read's fixture holds its silent cases too), allowlisted files stay silent, and the real tree
lints clean.
"""

import os
import subprocess
import sys
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.normpath(os.path.join(TESTS_DIR, ".."))
FIXTURES = os.path.join(TESTS_DIR, "lint_fixtures")
LINT = os.path.join(REPO_ROOT, "tools", "lint", "hattrick_lint.py")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools", "lint"))
import hattrick_lint  # noqa: E402


def lint_fixture(rel):
    """Lints one fixture file with repo-root remapped to the fixture tree;
    returns the list of (path, line, rule, message) findings."""
    return hattrick_lint.lint_file(
        os.path.join(FIXTURES, rel), repo_root=FIXTURES
    )


def rules_fired(findings):
    return {rule for _, _, rule, _ in findings}


def lines_fired(findings, rule):
    return sorted(line for _, line, r, _ in findings if r == rule)


class RuleFiringTest(unittest.TestCase):
    def test_nondeterministic_time_fires(self):
        findings = lint_fixture("src/engine/time_bad.cc")
        self.assertEqual(rules_fired(findings), {"nondeterministic-time"})
        self.assertEqual(lines_fired(findings, "nondeterministic-time"),
                         [6, 8, 10, 12])

    def test_nondeterministic_random_fires(self):
        findings = lint_fixture("src/engine/random_bad.cc")
        self.assertEqual(rules_fired(findings), {"nondeterministic-random"})
        self.assertEqual(lines_fired(findings, "nondeterministic-random"),
                         [6, 7, 9])

    def test_raw_lock_fires(self):
        findings = lint_fixture("src/engine/raw_lock_bad.cc")
        self.assertEqual(rules_fired(findings), {"raw-lock"})
        self.assertEqual(lines_fired(findings, "raw-lock"),
                         [2, 3, 5, 6, 9, 10, 11])

    def test_assert_in_replication_fires(self):
        findings = lint_fixture("src/replication/apply_bad.cc")
        self.assertEqual(rules_fired(findings), {"assert-in-replication"})
        self.assertEqual(lines_fired(findings, "assert-in-replication"), [6])

    def test_raw_cas_fires_outside_mvcc(self):
        findings = lint_fixture("src/engine/raw_cas_bad.cc")
        self.assertEqual(rules_fired(findings), {"raw-cas"})
        self.assertEqual(lines_fired(findings, "raw-cas"), [4, 6])

    def test_concrete_engine_include_fires(self):
        findings = lint_fixture("src/hattrick/engine_include_bad.cc")
        self.assertEqual(rules_fired(findings), {"concrete-engine-include"})
        # The factory include (line 3) and the comment mentions (lines 7
        # and 10, both quote and angle form) stay silent; the lint:allow
        # line (line 8) is suppressed; the angle-bracket include (line 9)
        # fires like the quote form.
        self.assertEqual(lines_fired(findings, "concrete-engine-include"),
                         [4, 5, 6, 9])

    def test_env_read_fires_everywhere(self):
        # Every spelling fires (lines 4-7); the comment, the string and an
        # identifier that merely contains the word (lines 9-11) do not.
        findings = lint_fixture("src/engine/env_read_bad.cc")
        self.assertEqual(rules_fired(findings), {"env-read"})
        self.assertEqual(lines_fired(findings, "env-read"), [4, 5, 6, 7])
        # No file is allowlisted: the same reads fire in src/common/, the
        # home of the other rules' allowlisted primitives.
        self.assertEqual(hattrick_lint.ALLOWLIST.get("env-read"), None)
        src = os.path.join(FIXTURES, "src/engine/env_read_bad.cc")
        dst = os.path.join(FIXTURES, "src/common/env_fixture.cc")
        try:
            with open(src) as f:
                content = f.read()
            with open(dst, "w") as f:
                f.write(content)
            findings = lint_fixture("src/common/env_fixture.cc")
            self.assertEqual(lines_fired(findings, "env-read"), [4, 5, 6, 7])
        finally:
            os.remove(dst)

    def test_concrete_engine_include_silent_in_engine_and_shard(self):
        src = os.path.join(FIXTURES, "src/hattrick/engine_include_bad.cc")
        for rel_dir, name in (("src/engine", "factory_fixture.cc"),
                              ("src/shard", "sharded_fixture.cc")):
            dst_dir = os.path.join(FIXTURES, rel_dir)
            os.makedirs(dst_dir, exist_ok=True)
            dst = os.path.join(dst_dir, name)
            try:
                with open(src) as f:
                    content = f.read()
                with open(dst, "w") as f:
                    f.write(content)
                findings = lint_fixture(os.path.join(rel_dir, name))
                self.assertNotIn("concrete-engine-include",
                                 rules_fired(findings))
            finally:
                os.remove(dst)

    def test_raw_cas_silent_inside_mvcc(self):
        # Identical CAS content under src/txn/mvcc* is the audited home
        # of the lock-free helpers and must stay silent.
        src = os.path.join(FIXTURES, "src/engine/raw_cas_bad.cc")
        dst_dir = os.path.join(FIXTURES, "src/txn")
        os.makedirs(dst_dir, exist_ok=True)
        dst = os.path.join(dst_dir, "mvcc.h")
        try:
            with open(src) as f:
                content = f.read()
            with open(dst, "w") as f:
                f.write(content)
            findings = lint_fixture("src/txn/mvcc.h")
            self.assertNotIn("raw-cas", rules_fired(findings))
        finally:
            os.remove(dst)


class SuppressionTest(unittest.TestCase):
    def test_lint_allow_suppresses_per_line(self):
        findings = lint_fixture("src/engine/allow_escape.cc")
        # Only the un-allowed line fires.
        self.assertEqual(
            [(line, rule) for _, line, rule, _ in findings],
            [(8, "nondeterministic-random")],
        )

    def test_allow_without_reason_fires(self):
        findings = lint_fixture("src/engine/allow_no_reason.cc")
        # Line 7 has a justification and stays silent; line 8 has none;
        # line 9 tries to allow the rule itself, which is not
        # suppressible — write the reason instead.
        self.assertEqual(
            [(line, rule) for _, line, rule, _ in findings],
            [(8, "allow-without-reason"), (9, "allow-without-reason")],
        )

    def test_comments_and_strings_never_fire(self):
        self.assertEqual(lint_fixture("src/engine/comments_ok.cc"), [])

    def test_allowlisted_file_is_silent(self):
        self.assertEqual(lint_fixture("src/common/clock.h"), [])


class CliTest(unittest.TestCase):
    def run_lint(self, args):
        return subprocess.run(
            [sys.executable, LINT] + args,
            capture_output=True, text=True, check=False,
        )

    def test_tree_is_clean(self):
        proc = self.run_lint([])
        self.assertEqual(proc.returncode, 0,
                         f"tree has lint findings:\n{proc.stdout}")
        self.assertEqual(proc.stdout, "")

    def test_bad_fixture_exits_nonzero(self):
        proc = self.run_lint([
            "--repo-root", FIXTURES,
            os.path.join(FIXTURES, "src/engine/raw_lock_bad.cc"),
        ])
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[raw-lock]", proc.stdout)

    def test_list_rules(self):
        proc = self.run_lint(["--list-rules"])
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(
            proc.stdout.split(),
            ["nondeterministic-time", "nondeterministic-random", "raw-lock",
             "assert-in-replication", "raw-cas",
             "concrete-engine-include", "env-read", "allow-without-reason"],
        )


if __name__ == "__main__":
    unittest.main()
