#!/usr/bin/env python3
"""hattrick-lint: determinism and locking-hygiene checks for the tree.

The simulator's core promise is that two runs with the same seed produce
byte-identical results. That promise is easy to break with one stray
wall-clock read or one ambient random draw, and such bugs only show up as
flaky golden files months later. This checker bans the foot-guns at
review time instead (hash-ordered iteration in export paths is the
type-resolved `unordered-iteration` pass of tools/analyzer/):

  nondeterministic-time     wall-clock sources (time(), std::chrono::
                            system_clock / steady_clock / high_resolution_
                            clock) outside src/common/clock.h. All time
                            must flow through the injected Clock.
  nondeterministic-random   ambient randomness (std::rand, srand,
                            std::random_device, seeding from entropy)
                            outside src/common/rng.h. All randomness must
                            flow through the seeded Rng.
  raw-lock                  std synchronization primitives (<mutex>,
                            <shared_mutex>, std::lock_guard, .lock() /
                            .unlock(), ...) outside src/common/mutex.h.
                            The annotated wrappers there are the only way
                            to lock, so Clang thread-safety analysis sees
                            every acquisition.
  assert-in-replication     assert() in src/replication/. NDEBUG builds
                            compile asserts out, silently changing
                            replication control flow between Debug and
                            Release; use Status returns or explicit
                            aborts instead.
  raw-cas                   compare_exchange_weak / _strong outside
                            src/txn/mvcc*. Hand-rolled CAS loops are
                            where the lock-free protocol bugs live; all
                            version-chain CAS goes through the audited
                            helpers in src/txn/mvcc.h (PushHead,
                            TryPushHead, AttachMemo).
  concrete-engine-include   #include of a concrete engine header
                            (engine/shared_engine.h, isolated_engine.h,
                            hybrid_engine.h) — either the quote or the
                            angle-bracket form — outside src/engine/ and
                            src/shard/. Everything above the engine layer
                            programs against the HtapEngine facade and
                            constructs through engine/engine_factory.h,
                            so engines stay swappable (and the sharded
                            engine slots in behind every caller).
  allow-without-reason      a `lint:allow(...)` escape with no same-line
                            justification after the closing paren. Every
                            suppression must say why, where it is, or the
                            next reader cannot tell a considered
                            exception from a silenced bug. This rule is
                            not itself suppressible — write the reason.

Escape hatch: a `// lint:allow(rule-name)` comment on the offending line
suppresses that rule for that line (comma-separate several rules). Use it
sparingly and say why on the same line — `allow-without-reason` enforces
the "say why" part.

Usage:
  hattrick_lint.py                 # lint the default tree (src/, tools/,
                                   # bench/)
  hattrick_lint.py FILE [FILE...]  # lint specific files (tests use this)
  hattrick_lint.py --list-rules

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage
errors.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
)

# Directories scanned when no explicit files are given (repo-relative).
DEFAULT_SCAN_DIRS = ("src", "tools", "bench")
SOURCE_EXTENSIONS = (".cc", ".h")

# Files allowed to touch the banned primitives, keyed by rule
# (repo-relative, forward slashes).
ALLOWLIST = {
    "nondeterministic-time": {"src/common/clock.h", "src/common/clock.cc"},
    "nondeterministic-random": {"src/common/rng.h", "src/common/rng.cc"},
    "raw-lock": {"src/common/mutex.h"},
}

ALLOW_RE = re.compile(r"lint:allow\(([a-zA-Z0-9_,\s-]+)\)")


class Rule:
    def __init__(self, name, pattern, message, applies, use_raw=False,
                 raw_needs_hash=True, suppressible=True):
        self.name = name
        self.pattern = re.compile(pattern)
        self.message = message
        self.applies = applies  # callable(rel_path) -> bool
        # Match against the raw line instead of the comment/string-blanked
        # one. Needed for rules that target quoted #include paths, which
        # the blanking pass erases; guarded (raw_needs_hash) so
        # comment-only lines (no surviving '#') never fire. Rules that
        # target comment *markers* themselves (allow-without-reason) drop
        # the guard.
        self.use_raw = use_raw
        self.raw_needs_hash = raw_needs_hash
        # lint:allow(<this rule>) suppresses the finding, except for rules
        # policing the allow markers themselves.
        self.suppressible = suppressible


def _outside_allowlist(rule_name):
    allowed = ALLOWLIST.get(rule_name, set())
    return lambda rel: rel not in allowed


RULES = [
    Rule(
        "nondeterministic-time",
        r"\bstd::chrono::(system_clock|steady_clock|high_resolution_clock)\b"
        r"|(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
        r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\blocaltime\s*\(",
        "wall-clock read; inject a Clock (src/common/clock.h) instead",
        _outside_allowlist("nondeterministic-time"),
    ),
    Rule(
        "nondeterministic-random",
        r"\bstd::rand\b|(?<![\w:])srand\s*\(|\bstd::random_device\b"
        r"|\brandom_device\s*\{",
        "ambient randomness; use the seeded Rng (src/common/rng.h) instead",
        _outside_allowlist("nondeterministic-random"),
    ),
    Rule(
        "raw-lock",
        r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
        r"condition_variable(_any)?|lock_guard|unique_lock|shared_lock|"
        r"scoped_lock)\b"
        r"|#\s*include\s*<(mutex|shared_mutex|condition_variable)>"
        r"|\.\s*(lock|unlock|try_lock|lock_shared|unlock_shared)\s*\(\s*\)",
        "raw std synchronization; use the annotated wrappers in "
        "src/common/mutex.h so thread-safety analysis sees the acquisition",
        _outside_allowlist("raw-lock"),
    ),
    Rule(
        "assert-in-replication",
        r"(?<![\w.])assert\s*\(",
        "assert() in replication code vanishes under NDEBUG, changing "
        "control flow between build types; return a Status or abort "
        "explicitly",
        lambda rel: rel.startswith("src/replication/"),
    ),
    Rule(
        "raw-cas",
        r"(?:\.|->)\s*compare_exchange_(weak|strong)\b",
        "raw compare-exchange outside the MVCC module; use the audited "
        "chain helpers in src/txn/mvcc.h (TryPushHead, Unlink) so every "
        "lock-free publication point stays in one reviewed file",
        lambda rel: not rel.startswith("src/txn/mvcc"),
    ),
    Rule(
        "concrete-engine-include",
        r'#\s*include\s*["<]engine/(shared|isolated|hybrid)_engine\.h[">]',
        "concrete engine header outside src/engine/ and src/shard/; "
        "construct through engine/engine_factory.h and program against "
        "the HtapEngine facade",
        lambda rel: not (rel.startswith("src/engine/")
                         or rel.startswith("src/shard/")),
        use_raw=True,
    ),
    Rule(
        "allow-without-reason",
        # Fires when nothing letter-like follows the allow group on the
        # line: the justification is missing.
        r"lint:allow\([a-zA-Z0-9_,\s-]+\)(?!.*[A-Za-z])",
        "lint:allow escape without a same-line justification; say why "
        "the suppression is sound where it is",
        lambda rel: True,
        use_raw=True,
        raw_needs_hash=False,
        suppressible=False,
    ),
]


def extract_allows(line):
    """Returns the set of rule names allow-listed on this line."""
    allows = set()
    for m in ALLOW_RE.finditer(line):
        allows.update(part.strip() for part in m.group(1).split(","))
    return allows


def strip_comments_and_strings(text):
    """Blanks out comment bodies and string/char literal contents while
    preserving the line structure, so rule regexes never match prose or
    quoted text (e.g. a comment *mentioning* std::mutex)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                out.append("  ")
                i += 2
                state = "line_comment"
                continue
            if c == "/" and nxt == "*":
                out.append("  ")
                i += 2
                state = "block_comment"
                continue
            if c == '"':
                # Raw strings R"delim(...)delim" need their own scan.
                if (i > 0 and text[i - 1] == "R"
                        and (i < 2 or not (text[i - 2].isalnum()
                                           or text[i - 2] == "_"))):
                    m = re.match(r'R"([^\s()\\]{0,16})\(', text[i - 1:])
                    if m:
                        closer = ")" + m.group(1) + '"'
                        end = text.find(closer, i + len(m.group(0)) - 1)
                        end = n if end < 0 else end + len(closer)
                        out.append('"')
                        for ch in text[i + 1:end]:
                            out.append("\n" if ch == "\n" else " ")
                        i = end
                        continue
                out.append(c)
                i += 1
                state = "string"
                continue
            if c == "'":
                out.append(c)
                i += 1
                state = "char"
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                out.append(c)
                state = "code"
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                out.append("  ")
                i += 2
                state = "code"
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                out.append(c)
                i += 1
                state = "code"
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def lint_file(path, repo_root=REPO_ROOT):
    """Lints one file; returns a list of (path, line, rule, message)."""
    rel = os.path.relpath(os.path.abspath(path), repo_root).replace(
        os.sep, "/"
    )
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        return [(path, 0, "io-error", str(e))]

    raw_lines = raw.split("\n")
    allows = [extract_allows(line) for line in raw_lines]
    code_lines = strip_comments_and_strings(raw).split("\n")

    findings = []
    active = [r for r in RULES if r.applies(rel)]
    for lineno, code in enumerate(code_lines, start=1):
        for rule in active:
            if rule.use_raw:
                # Quoted include paths are blanked by the comment/string
                # pass; match the raw line, but (for include-shaped rules)
                # only when a preprocessor '#' survived outside comments.
                if rule.raw_needs_hash and "#" not in code:
                    continue
                subject = raw_lines[lineno - 1]
            else:
                subject = code
            if rule.pattern.search(subject):
                if rule.suppressible and rule.name in allows[lineno - 1]:
                    continue
                findings.append((path, lineno, rule.name, rule.message))
    return findings


def default_files():
    files = []
    for d in DEFAULT_SCAN_DIRS:
        for root, _, names in os.walk(os.path.join(REPO_ROOT, d)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTENSIONS):
                    files.append(os.path.join(root, name))
    return sorted(files)


def main(argv):
    parser = argparse.ArgumentParser(
        prog="hattrick-lint",
        description="determinism and locking-hygiene linter",
    )
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: src/ and tools/)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    parser.add_argument("--repo-root", default=REPO_ROOT,
                        help="root used to resolve per-rule allowlists "
                             "(tests point this at a fixture dir)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule.name)
        return 0

    files = args.files or default_files()
    findings = []
    for path in files:
        findings.extend(lint_file(path, repo_root=args.repo_root))

    for path, lineno, rule, message in findings:
        print(f"{path}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"hattrick-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
