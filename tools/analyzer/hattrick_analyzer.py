#!/usr/bin/env python3
"""hattrick-analyzer: AST-level semantic checks for the tree.

Where hattrick-lint (tools/lint/) bans line-shaped foot-guns with
regexes, this tool checks *protocol* rules that need symbol resolution
and whole-program views. It parses every translation unit named by the
compile database (plus all headers under src/) into a fact stream —
lock acquisitions, TSA annotations, pins, loops, switches, declared
types — and runs four passes over the merged program:

  lock-order-cycle      Builds the static member-field-resolved lock
                        graph: an edge A -> B for every site that
                        acquires B while holding A (scoped RAII locks,
                        manual Lock()/Unlock(), locks taken inside
                        functions reached from the site via the call
                        graph, and the latch internally held around
                        SessionPinLatch::WithExclusive callbacks),
                        merged with declared ACQUIRED_BEFORE /
                        ACQUIRED_AFTER and REQUIRES annotations. Any
                        cycle is reported with witness acquisition
                        paths — the two-directional peer-copy class
                        of deadlock, caught before TSan ever runs. The
                        address-ordered-acquisition idiom (acquiring a
                        peer pair under an `if (this < &other)` branch)
                        is recognized and exempts the self-pair.
  unpinned-snapshot     In engine, shard and storage code, every
                        version-chain read (SnapshotVersions,
                        FoldVisible, `head.load`) must be dominated by
                        a session pin (AcquirePin / WithExclusive) in
                        the same function; a row-chain read
                        (FoldVisible, `head.load`) may instead be made
                        while RowTable::latch_ is held, shared or
                        exclusive — the GC-safety contract.
  unordered-iteration   Type-resolved detection of range-for /
                        .begin() iteration over std::unordered_*
                        containers in TUs that feed exports, WAL
                        encoding, or commit publish order.
  switch-exhaustive     Every switch over WAL op kinds, MVCC status
                        words, and 2PC record kinds must cover all
                        enumerators with no `default:` that would
                        swallow newly added kinds.

Frontend: a dependency-free tokenizer/micro-parser (cpp_facts.py)
produces the fact stream; every pass is fixture-tested against it.

Escape hatch: `// lint:allow(rule-name)` on the reported line, same as
hattrick-lint (and the `allow-without-reason` lint rule applies: say
why on the same line).

Exit status: 0 clean, 1 findings, 2 usage errors.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cpp_facts  # noqa: E402

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
)

RULES = [
    ("lock-order-cycle",
     "cycle in the static lock-order graph; two threads taking the "
     "cycle's locks in opposite witness orders deadlock"),
    ("unpinned-snapshot",
     "version-chain read not dominated by a session pin in the same "
     "function, nor (row chains) made under RowTable::latch_; a "
     "concurrent fold/vacuum can reclaim the versions mid-read"),
    ("unordered-iteration",
     "iteration over a std::unordered_* container in a TU that feeds "
     "exports, WAL encoding, or commit publish order; hash order varies "
     "run-to-run and across libstdc++ versions"),
    ("switch-exhaustive",
     "switch over a protocol enum must cover every enumerator and must "
     "not have a default: that silently swallows new kinds"),
]

# Files whose facts are excluded everywhere: the audited primitive layer
# (wrapper internals would alias every wrapped lock into one node).
EXCLUDED_FILES = {"src/common/mutex.h", "src/common/thread_annotations.h"}

# Pass 2 scope: the pin/latch GC-safety contract applies here.
PIN_REGIONS = ("src/engine/", "src/shard/", "src/storage/")
# Row-chain nodes are freed only under the exclusive side of this latch
# (RowTable::Vacuum), so holding either side covers a row-chain read.
ROW_CHAIN_LATCH = "RowTable::latch_"
ROW_CHAIN_READS = ("FoldVisible", "head.load")

# Pass 3 scope: deterministic-output TUs (export/snapshot surfaces, WAL
# encoding, commit publish order, replication apply order).
DETERMINISM_PATHS = (
    "src/obs/",
    "src/hattrick/report",
    "src/hattrick/frontier",
    "src/txn/wal",
    "src/txn/txn_manager",
    "src/replication/",
    "src/shard/two_pc",
    "src/shard/sharded_engine",
)

# Pass 4 scope: protocol enums whose dispatch must stay exhaustive.
MONITORED_ENUM_SUFFIXES = ("WalOp::Kind", "TwoPcRecord::Kind",
                           "VersionStatus")

LOCK_TYPES = ("Mutex", "SharedMutex")


class Program:
    """Whole-program fact index merged across files."""

    def __init__(self):
        self.files = []
        self.classes = {}       # class qualname -> {field: type}
        self.class_short = {}   # short name -> qualname | None (ambiguous)
        self.enums = {}         # enum qualname -> [enumerators]
        self.functions = []     # FunctionFacts (excluding EXCLUDED_FILES)
        self.order_annotations = []
        self.allows = {}        # (path, line) -> set(rules)
        self.fn_by_qual = {}    # qualname -> FunctionFacts (last def wins)
        self.fn_by_short = {}   # short name -> [FunctionFacts]

    def add(self, facts):
        self.files.append(facts)
        for cls, fields in facts.classes.items():
            self.classes.setdefault(cls, {}).update(fields)
            short = cls.split("::")[-1]
            if short in self.class_short and self.class_short[short] != cls:
                self.class_short[short] = None
            else:
                self.class_short[short] = cls
        self.enums.update(facts.enums)
        self.order_annotations.extend(facts.order_annotations)
        for line, rules in facts.allows.items():
            self.allows.setdefault((facts.path, line), set()).update(rules)
        if facts.path in EXCLUDED_FILES:
            return
        for fn in facts.functions:
            self.functions.append(fn)
            self.fn_by_qual[fn.qualname] = fn
            self.fn_by_short.setdefault(
                fn.qualname.split("::")[-1], []).append(fn)

    # -- type & lock resolution -------------------------------------------
    def base_class(self, type_str):
        """Reduces a declared type string to a known class qualname."""
        if not type_str:
            return None
        t = type_str.replace("const", "").replace("std::", "")
        t = t.replace("*", "").replace("&", "").strip()
        # unique_ptr<T> / shared_ptr<T> / vector<T> dereference to T for
        # member-chain purposes.
        for wrapper in ("unique_ptr<", "shared_ptr<", "vector<", "deque<",
                        "array<", "optional<"):
            idx = t.find(wrapper)
            if idx >= 0:
                t = t[idx + len(wrapper):]
                if t.endswith(">"):
                    t = t[:-1]
                t = t.split(",")[0]
        t = t.strip()
        if t in self.classes:
            return t
        short = t.split("::")[-1]
        return self.class_short.get(short)

    def field_type(self, cls, field):
        fields = self.classes.get(cls)
        if fields and field in fields:
            return fields[field]
        return None

    def resolve_chain_type(self, chain, fn):
        """Resolves an expression chain (tokens with ./->/:: separators)
        to a declared type string, or None."""
        segs = [t for t in chain if t not in (".", "->", "::", "&", "*",
                                              "this", "(", ")")]
        if "(" in chain or ")" in chain:
            return None  # call results are out of scope
        if not segs:
            return None
        first = segs[0]
        cur_cls = None
        cur_type = None
        if chain and chain[0] == "this":
            cur_cls = self.base_class(fn.cls or "")
            start = 0
        elif first in fn.locals:
            cur_type = fn.locals[first]
            start = 1
        elif first in fn.params:
            cur_type = fn.params[first]
            start = 1
        elif fn.cls and self._field_in_class_chain(fn.cls, first):
            cur_type = self._field_in_class_chain(fn.cls, first)
            start = 1
        elif first in self.classes or first in self.class_short:
            cur_cls = self.base_class(first)
            start = 1
        else:
            return None
        for seg in segs[start:]:
            if cur_type is not None:
                cur_cls = self.base_class(cur_type)
                cur_type = None
            if cur_cls is None:
                return None
            nxt = self.field_type(cur_cls, seg)
            if nxt is None:
                return None
            cur_type = nxt
        return cur_type

    def _field_in_class_chain(self, cls, field):
        """Looks up a field in `cls`, resolving the class name through the
        short-name index (out-of-line methods know only 'BTree')."""
        resolved = self.base_class(cls) or cls
        t = self.field_type(resolved, field)
        if t is not None:
            return t
        # Nested-class methods ('Outer::Inner'): try suffix classes.
        parts = resolved.split("::")
        for i in range(1, len(parts)):
            t = self.field_type("::".join(parts[i:]), field)
            if t is not None:
                return t
        return None

    def resolve_lock_id(self, chain, fn):
        """Resolves a lock expression to a member-field identity
        'Class::field', or a site-unique '?' identity when unresolvable.
        Returns None for expressions that must not participate (e.g.
        REQUIRES on parameters, whose identity is caller-dependent)."""
        if not chain:
            return None
        if chain[0] == "<cb>":
            return chain[1]
        if chain[0] == "<req>":
            arg = chain[1]
            arg = arg.lstrip("&*")
            if arg in fn.params:
                return None  # caller-dependent identity
            chain = [arg]
        # Strip leading address-of / dereference.
        chain = [t for t in chain if t not in ("&", "*")]
        segs = []
        seps = []
        for t in chain:
            if t in (".", "->", "::"):
                seps.append(t)
            else:
                segs.append(t)
        if not segs:
            return None
        if segs[0] == "this" and len(segs) > 1:
            segs = segs[1:]
        field = segs[-1]
        if len(segs) == 1:
            owner = self._owning_class(fn.cls, field)
            if owner is not None:
                return f"{owner}::{field}"
            if field in fn.params:
                return None  # lock passed by pointer: caller-dependent
            return None
        # Walk the prefix to find the owner's class.
        prefix_type = self.resolve_chain_type(
            self._rebuild_chain(segs[:-1]), fn)
        if prefix_type is not None:
            owner_cls = self.base_class(prefix_type)
            if owner_cls is not None and \
                    self.field_type(owner_cls, field) is not None:
                return f"{owner_cls}::{field}"
        # Qualified static-ish spelling: Class::field.
        maybe_cls = self.base_class(segs[-2])
        if maybe_cls is not None and \
                self.field_type(maybe_cls, field) is not None:
            return f"{maybe_cls}::{field}"
        return None

    def _rebuild_chain(self, segs):
        chain = []
        for i, s in enumerate(segs):
            if i:
                chain.append(".")
            chain.append(s)
        return chain

    def _owning_class(self, cls, field):
        if not cls:
            return None
        resolved = self.base_class(cls) or cls
        if self.field_type(resolved, field) is not None:
            return resolved
        parts = resolved.split("::")
        for i in range(1, len(parts)):
            cand = "::".join(parts[i:])
            if self.field_type(cand, field) is not None:
                return cand
        return None


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule, self.message)


def _allowed(program, path, line, rule):
    return rule in program.allows.get((path, line), ())


# ---------------------------------------------------------------------------
# Pass 1: lock-order cycle detection
# ---------------------------------------------------------------------------

def lock_order_pass(program):
    findings = []
    # adj[u][v] = list of witness strings (provenance), at most 2 kept.
    adj = {}
    anchor = {}   # (u, v) -> (path, line) for finding anchors

    def add_edge(u, v, path, line, witness):
        slots = adj.setdefault(u, {}).setdefault(v, [])
        if len(slots) < 2:
            slots.append(witness)
        anchor.setdefault((u, v), (path, line))

    # Direct (intra-function) acquisitions + self-cycle check.
    direct_sites = {}   # fn -> {lock_id: (path, line)}
    for fn in program.functions:
        sites = {}
        for acq in fn.acquisitions:
            a_id = program.resolve_lock_id(acq.expr, fn)
            if a_id is None:
                continue
            sites.setdefault(a_id, (fn.path, acq.line))
            for h_chain, h_line, h_ordered in acq.held:
                h_id = program.resolve_lock_id(h_chain, fn)
                if h_id is None:
                    continue
                if h_id == a_id:
                    if acq.ordered and h_ordered:
                        continue  # address-ordered peer pair
                    if acq.kind == "callback":
                        continue
                witness = (
                    f"{fn.qualname} acquires {a_id} at {fn.path}:{acq.line} "
                    f"while holding {h_id} (held since {fn.path}:{h_line})")
                add_edge(h_id, a_id, fn.path, acq.line, witness)
        direct_sites[fn] = sites

    # Declared ordering annotations (ACQUIRED_BEFORE / ACQUIRED_AFTER).
    for cls, field, direction, arg, line in program.order_annotations:
        this_id = f"{program.base_class(cls) or cls}::{field}"
        arg_name = arg.lstrip("&*").split(",")[0]
        owner = program._owning_class(cls, arg_name)
        other_id = f"{owner}::{arg_name}" if owner else None
        if other_id is None:
            continue
        src_path = ""
        for f in program.files:
            if any(a[0] == cls and a[1] == field
                   for a in f.order_annotations):
                src_path = f.path
                break
        w = (f"declared {field} ACQUIRED_{direction.upper()}({arg}) "
             f"on {cls} at {src_path}:{line}")
        if direction == "before":
            add_edge(this_id, other_id, src_path, line, w)
        else:
            add_edge(other_id, this_id, src_path, line, w)

    # Interprocedural: transitive acquires through the call graph.
    def resolve_callee(call, fn):
        if call.recv:
            t = program.resolve_chain_type(call.recv, fn)
            if t is not None:
                cls = program.base_class(t)
                if cls is not None:
                    target = program.fn_by_qual.get(f"{cls}::{call.name}")
                    if target is not None:
                        return target
                if t.replace("const", "").strip().startswith("std::"):
                    # A standard-library receiver (`n->keys.size()`):
                    # never a program method, whatever its name.
                    return None
            # Receiver resolved to nothing useful; fall through to the
            # unique-name rule.
        cands = program.fn_by_short.get(call.name, [])
        if len(cands) == 1:
            return cands[0]
        return None  # ambiguous or unknown: skipped (documented blind spot)

    callees = {fn: [] for fn in program.functions}
    for fn in program.functions:
        for call in fn.calls:
            target = resolve_callee(call, fn)
            if target is not None and target is not fn:
                callees[fn].append((call, target))

    # Fixpoint: trans[fn] = direct ∪ callees' trans, with a sample
    # provenance chain per lock id.
    trans = {fn: dict(direct_sites[fn]) for fn in program.functions}
    trace = {fn: {k: [fn.qualname] for k in direct_sites[fn]}
             for fn in program.functions}
    changed = True
    rounds = 0
    while changed and rounds < 50:
        changed = False
        rounds += 1
        for fn in program.functions:
            for call, target in callees[fn]:
                for lock_id, site in trans[target].items():
                    if lock_id not in trans[fn]:
                        trans[fn][lock_id] = site
                        trace[fn][lock_id] = \
                            [fn.qualname] + trace[target][lock_id]
                        changed = True

    for fn in program.functions:
        for call, target in callees[fn]:
            for h_chain, h_line, h_ordered in call.held:
                h_id = program.resolve_lock_id(h_chain, fn)
                if h_id is None:
                    continue
                for lock_id, site in trans[target].items():
                    if lock_id == h_id:
                        # Re-acquisition through a call chain is real,
                        # but the direct self-pair case is handled above
                        # with ordered-idiom context; through calls we
                        # cannot see the ordering idiom, so only flag
                        # when the immediate callee acquires it.
                        if lock_id not in direct_sites[target]:
                            continue
                    chain = " -> ".join(
                        [fn.qualname] + trace[target][lock_id])
                    witness = (
                        f"{fn.qualname} calls {target.qualname} at "
                        f"{fn.path}:{call.line} while holding {h_id} "
                        f"(held since {fn.path}:{h_line}); the call chain "
                        f"{chain} acquires {lock_id} at "
                        f"{site[0]}:{site[1]}")
                    add_edge(h_id, lock_id, fn.path, call.line, witness)

    # Cycle detection: self-loops, then SCCs of size > 1.
    reported = set()
    for u in sorted(adj):
        if u in adj.get(u, {}):
            path, line = anchor[(u, u)]
            if _allowed(program, path, line, "lock-order-cycle"):
                continue
            wits = adj[u][u]
            msg = (f"lock-order cycle on {u}: two instances are acquired "
                   f"without address ordering. witness: {wits[0]}"
                   + (f" | second witness: {wits[1]}"
                      if len(wits) > 1 else
                      " | second witness: the same site run by a second "
                        "thread with the two objects' roles swapped"))
            findings.append(Finding(path, line, "lock-order-cycle", msg))
            reported.add(frozenset([u]))

    for scc in _sccs(adj):
        if len(scc) < 2 or frozenset(scc) in reported:
            continue
        cycle = _find_cycle(adj, scc)
        if cycle is None:
            continue
        parts = []
        anchor_site = None
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            wit = adj[a][b][0]
            parts.append(f"[{a} -> {b}] {wit}")
            if anchor_site is None:
                anchor_site = anchor[(a, b)]
        path, line = anchor_site
        if _allowed(program, path, line, "lock-order-cycle"):
            continue
        msg = ("lock-order cycle: " + " -> ".join(cycle + [cycle[0]])
               + ". " + " | ".join(parts))
        findings.append(Finding(path, line, "lock-order-cycle", msg))
        reported.add(frozenset(scc))
    return findings


def _sccs(adj):
    """Iterative Tarjan over the adjacency map; yields each SCC as a
    sorted list."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    counter = [0]
    result = []
    nodes = sorted(set(adj) | {v for m in adj.values() for v in m})

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(adj.get(root, {}))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(adj.get(nxt, {})))))
                    advanced = True
                    break
                elif nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                result.append(sorted(comp))
    return result


def _find_cycle(adj, scc):
    """Finds one simple cycle within an SCC; returns the node list."""
    scc_set = set(scc)
    start = scc[0]
    # BFS back to start.
    from collections import deque
    prev = {start: None}
    q = deque([start])
    while q:
        u = q.popleft()
        for v in sorted(adj.get(u, {})):
            if v not in scc_set:
                continue
            if v == start:
                # reconstruct
                path = [u]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return list(reversed(path))
            if v not in prev:
                prev[v] = u
                q.append(v)
    return None


# ---------------------------------------------------------------------------
# Pass 2: pin/latch protocol
# ---------------------------------------------------------------------------

def unpinned_snapshot_pass(program):
    findings = []
    for fn in program.functions:
        if not fn.path.startswith(PIN_REGIONS):
            continue
        if getattr(fn, "is_lifecycle", False):
            continue  # ctor/dtor: single-owner, no concurrent GC
        short = fn.qualname.split("::")[-1]
        if short in cpp_facts.PROTECTED_CALLS:
            continue  # the protected callee's own definition
        for line, what, held in fn.protected_reads:
            if any(pin_line <= line for pin_line, _ in fn.pins):
                continue
            row_chain = what in ROW_CHAIN_READS
            if row_chain and any(
                    program.resolve_lock_id(chain, fn) == ROW_CHAIN_LATCH
                    for chain, _, _ in held):
                continue
            if _allowed(program, fn.path, line, "unpinned-snapshot"):
                continue
            latch = f" nor made under {ROW_CHAIN_LATCH}" if row_chain else ""
            findings.append(Finding(
                fn.path, line, "unpinned-snapshot",
                f"{what} in {fn.qualname} is not dominated by a session "
                f"pin (AcquirePin/WithExclusive) in the same function"
                f"{latch}; a concurrent fold or vacuum can reclaim the "
                f"versions mid-read (GC-safety contract, DESIGN.md §8)"))
    return findings


# ---------------------------------------------------------------------------
# Pass 3: determinism by type
# ---------------------------------------------------------------------------

def unordered_iteration_pass(program):
    findings = []
    for fn in program.functions:
        if not fn.path.startswith(DETERMINISM_PATHS):
            continue
        for it in fn.iterations:
            t = program.resolve_chain_type(it.chain, fn)
            if t is None or "unordered_" not in t:
                continue
            if _allowed(program, fn.path, it.line, "unordered-iteration"):
                continue
            expr = "".join(it.chain)
            findings.append(Finding(
                fn.path, it.line, "unordered-iteration",
                f"{fn.qualname} iterates `{expr}` (declared {t}) via "
                f"{it.via} in a deterministic-output TU; hash order "
                f"varies run-to-run — use an ordered container or sort "
                f"before emitting"))
    return findings


# ---------------------------------------------------------------------------
# Pass 4: exhaustive protocol switches
# ---------------------------------------------------------------------------

def switch_exhaustive_pass(program):
    findings = []
    # enumerator name -> (enum qualname, [all enumerators])
    monitored = {}
    for qual, enumerators in program.enums.items():
        if not qual.endswith(MONITORED_ENUM_SUFFIXES):
            continue
        for e in enumerators:
            monitored.setdefault(e, []).append((qual, enumerators))
    for fn in program.functions:
        for sw in fn.switches:
            # Which monitored enum do the case labels name?
            votes = {}
            covered = {}
            for _, label in sw.cases:
                tail = label.split("::")[-1]
                for qual, enumerators in monitored.get(tail, []):
                    # Accept the label only if its qualification is a
                    # suffix-path of the enum's qualname.
                    label_path = label.split("::")[:-1]
                    enum_path = qual.split("::")
                    if label_path and not _is_subpath(label_path,
                                                      enum_path):
                        continue
                    votes[qual] = votes.get(qual, 0) + 1
                    covered.setdefault(qual, set()).add(tail)
            if not votes:
                continue
            qual = max(sorted(votes), key=lambda q: votes[q])
            enumerators = dict(
                (q, e) for tail in monitored.values()
                for q, e in tail)[qual]
            missing = [e for e in enumerators if e not in covered[qual]]
            if missing and not _allowed(program, fn.path, sw.line,
                                        "switch-exhaustive"):
                findings.append(Finding(
                    fn.path, sw.line, "switch-exhaustive",
                    f"switch over {qual} in {fn.qualname} does not cover "
                    f"{', '.join(missing)}; every protocol kind must be "
                    f"handled explicitly"))
            if sw.has_default and not _allowed(program, fn.path, sw.line,
                                               "switch-exhaustive"):
                findings.append(Finding(
                    fn.path, sw.line, "switch-exhaustive",
                    f"switch over {qual} in {fn.qualname} has a default: "
                    f"that would silently swallow newly added kinds; "
                    f"cover each enumerator and let the compiler flag "
                    f"new ones"))
    return findings


def _is_subpath(label_path, enum_path):
    """True when label_path (e.g. ['WalOp','Kind']) is a contiguous
    suffix-aligned subsequence of enum_path (e.g. ['WalOp','Kind'])."""
    if len(label_path) > len(enum_path):
        return False
    return enum_path[-len(label_path):] == label_path


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def discover_files(repo_root, compile_db):
    """TU list: compile-database sources under src/ plus every header
    under src/ (facts — classes, annotations, inline methods — live in
    headers too)."""
    files = set()
    if compile_db and os.path.exists(compile_db):
        with open(compile_db, encoding="utf-8") as f:
            for entry in json.load(f):
                path = os.path.normpath(
                    os.path.join(entry.get("directory", ""),
                                 entry["file"]))
                rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
                if rel.startswith("src/"):
                    files.add(path)
    src_dir = os.path.join(repo_root, "src")
    for root, _, names in os.walk(src_dir):
        for name in names:
            if name.endswith(".h"):
                files.add(os.path.join(root, name))
            elif name.endswith(".cc") and not files:
                pass
    if not any(p.endswith(".cc") for p in files):
        for root, _, names in os.walk(src_dir):
            for name in names:
                if name.endswith(".cc"):
                    files.add(os.path.join(root, name))
    return sorted(files)


def load_program(paths, repo_root):
    program = Program()
    parsers = []
    for path in paths:
        facts, parser = cpp_facts.parse_file(path, repo_root)
        parsers.append(parser)
        program.add(facts)
    # Body extraction happens after the structure of every file is known.
    for parser in parsers:
        parser.extract_bodies()
    return program


PASSES = {
    "lock-order-cycle": lock_order_pass,
    "unpinned-snapshot": unpinned_snapshot_pass,
    "unordered-iteration": unordered_iteration_pass,
    "switch-exhaustive": switch_exhaustive_pass,
}


def main(argv):
    parser = argparse.ArgumentParser(
        prog="hattrick-analyzer",
        description="AST-level semantic checks: lock-order cycles, "
                    "pin/latch protocol, determinism by type, exhaustive "
                    "protocol switches",
    )
    parser.add_argument("files", nargs="*",
                        help="files to analyze (default: the compile "
                             "database's TUs plus src/ headers)")
    parser.add_argument("--repo-root", default=REPO_ROOT)
    parser.add_argument("--compile-db", default=None,
                        help="compile_commands.json (default: "
                             "<repo-root>/build/compile_commands.json)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset of rules to run")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, _ in RULES:
            print(name)
        return 0

    repo_root = os.path.abspath(args.repo_root)
    compile_db = args.compile_db or os.path.join(
        repo_root, "build", "compile_commands.json")
    if args.files:
        paths = [os.path.abspath(p) for p in args.files]
    else:
        paths = discover_files(repo_root, compile_db)
        if not paths:
            print("hattrick-analyzer: no input files (no compile database "
                  "and no src/ tree)", file=sys.stderr)
            return 2

    program = load_program(paths, repo_root)

    selected = [name for name, _ in RULES]
    if args.rules:
        selected = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in selected if r not in PASSES]
        if unknown:
            print(f"hattrick-analyzer: unknown rule(s): "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2

    findings = []
    for name in selected:
        findings.extend(PASSES[name](program))
    findings.sort(key=Finding.key)

    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if findings:
        print(f"hattrick-analyzer: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    if args.verbose:
        print(f"hattrick-analyzer: clean over {len(paths)} file(s)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
