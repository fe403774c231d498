#!/usr/bin/env python3
"""C++ fact-extraction frontend for hattrick-analyzer.

Produces the `FileFacts` structure the passes consume from a
dependency-free tokenizer and a micro-parser tuned to this codebase's
Google-style C++ (see DESIGN.md §9). Every analyzer pass is
fixture-tested against it.

The parser is deliberately *not* a general C++ parser. It recognizes
exactly the constructs the passes consume:

  - namespace / class / struct nesting (for qualified names),
  - enum (class) definitions with their enumerator lists,
  - member-field declarations with their declared type and any
    GUARDED_BY / ACQUIRED_BEFORE / ACQUIRED_AFTER annotations,
  - function definitions (free, member, out-of-line `Class::Method`)
    with parameter types and REQUIRES / REQUIRES_SHARED annotations,
  - inside function bodies: scoped lock acquisitions (MutexLock,
    SharedMutexLock, SharedReaderLock), manual Lock()/Unlock() pairs,
    the address-ordered-acquisition idiom, SessionPinLatch
    AcquirePin()/WithExclusive() pins, protected version-chain reads
    with the locks held at them, calls (for the interprocedural lock
    graph),
    range-for loops and .begin() iteration (for the determinism pass),
    switch statements with their case labels (for the exhaustiveness
    pass), and local variable declarations (for type resolution).

Anything it cannot classify it skips conservatively; the analyzer
documents the resulting blind spots in DESIGN.md §8.
"""

import bisect
import os
import re

# Scoped RAII lock wrappers (common/mutex.h): type name -> shared mode.
SCOPED_LOCK_TYPES = {
    "MutexLock": False,
    "SharedMutexLock": False,
    "SharedReaderLock": True,
}
# Lock capability types whose member fields are lock-graph nodes.
LOCK_FIELD_TYPES = ("Mutex", "SharedMutex", "SessionPinLatch")
# Manual acquisition / release member functions on the capability types.
MANUAL_ACQUIRE = {"Lock": False, "LockShared": True}
MANUAL_RELEASE = {"Unlock": False, "UnlockShared": True}
# Callback-runs-under idioms: calling `x.WithExclusive(f)` runs `f` with
# x's internal mutex_ held (session_pin.h). Modeled as a scoped
# acquisition spanning the call statement.
CALLBACK_HOLDS = {"WithExclusive": "SessionPinLatch::mutex_"}
# Pin-establishing facts for the unpinned-snapshot pass.
PIN_CALLS = {"AcquirePin", "WithExclusive"}
# Version-chain / snapshot reads that require a dominating pin (or, for
# row-chain reads, a hold of the row table's latch).
PROTECTED_CALLS = {"SnapshotVersions", "FoldVisible"}
PROTECTED_MEMBER_CHAINS = ("head", "load")  # `....head.load(`

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "case", "default",
    "else", "do", "new", "delete", "static_cast", "const_cast",
    "dynamic_cast", "reinterpret_cast", "throw", "catch", "alignof",
    "co_await", "co_return", "co_yield", "assert",
}

ALLOW_RE = re.compile(r"lint:allow\(([a-zA-Z0-9_,\s-]+)\)")
TOKEN_RE = re.compile(
    r"""
    (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>(?:0[xX][0-9a-fA-F']+|[0-9][0-9a-fA-F'.xXeEpPuUlLfF+-]*))
  | (?P<punct>->|::|<<=|>>=|<=>|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^~!<>=?:;,.(){}\[\]#\\])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text}@{self.line}"


class Acquisition:
    """One lock-acquisition event inside a function body."""

    __slots__ = ("line", "expr", "shared", "ordered", "held", "kind")

    def __init__(self, line, expr, shared, ordered, held, kind):
        self.line = line
        self.expr = expr          # raw chain, e.g. ["&", "other", ".", "latch_"]
        self.shared = shared
        self.ordered = ordered    # inside an address-ordered branch
        self.held = held          # list of (expr_chain, line) held at this point
        self.kind = kind          # "scoped" | "manual" | "callback"


class Call:
    __slots__ = ("line", "name", "recv", "held")

    def __init__(self, line, name, recv, held):
        self.line = line
        self.name = name          # bare callee name
        self.recv = recv          # receiver chain tokens or []
        self.held = held          # list of (expr_chain, line)


class SwitchFact:
    __slots__ = ("line", "cases", "has_default")

    def __init__(self, line):
        self.line = line
        self.cases = []           # list of (line, label_text)
        self.has_default = False


class IterFact:
    __slots__ = ("line", "chain", "via")

    def __init__(self, line, chain, via):
        self.line = line
        self.chain = chain        # expression chain being iterated
        self.via = via            # "range-for" | "begin"


class FunctionFacts:
    def __init__(self, qualname, cls, path, line):
        self.qualname = qualname  # e.g. "BTree::Insert"
        self.cls = cls            # enclosing/qualifying class or None
        self.path = path
        self.line = line
        self.is_lifecycle = False  # constructor/destructor
        self.params = {}          # name -> type string
        self.locals = {}          # name -> type string
        self.requires = []        # raw lock exprs from REQUIRES[_SHARED]
        self.acquisitions = []
        self.calls = []
        self.pins = []            # list of (line, kind)
        self.protected_reads = []  # list of (line, what, held chains)
        self.iterations = []      # list of IterFact
        self.switches = []


class FileFacts:
    def __init__(self, path):
        self.path = path          # repo-relative, forward slashes
        self.functions = []
        self.classes = {}         # qualname -> {field: type string}
        self.class_short = {}     # short name -> qualname (ambiguous -> None)
        self.enums = {}           # qualname -> [enumerators]
        self.order_annotations = []  # (class, field, "before"|"after", arg, line)
        self.allows = {}          # line -> set(rule names)


def _collect_allows(raw):
    allows = {}
    for lineno, line in enumerate(raw.split("\n"), start=1):
        hit = set()
        for m in ALLOW_RE.finditer(line):
            hit.update(p.strip() for p in m.group(1).split(","))
        if hit:
            allows[lineno] = hit
    return allows


def _strip(text):
    """Blanks comments and string/char literal contents, preserving line
    structure (same contract as hattrick_lint's stripper)."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                out.append("  ")
                i += 2
                state = "line"
            elif c == "/" and nxt == "*":
                out.append("  ")
                i += 2
                state = "block"
            elif c == '"':
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
            elif c == "'":
                out.append(c)
                i += 1
                state = "char"
            else:
                out.append(c)
                i += 1
        elif state == "line":
            out.append(c if c == "\n" else " ")
            if c == "\n":
                state = "code"
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                out.append("  ")
                i += 2
                state = "code"
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:
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


def _lex(code):
    """Tokenizes comment/string-stripped code. Preprocessor lines (with
    their continuations) are dropped entirely, preserving line numbers."""
    lines = code.split("\n")
    cleaned = []
    in_pp = False
    for text in lines:
        stripped = text.lstrip()
        if in_pp or stripped.startswith("#"):
            in_pp = text.rstrip().endswith("\\")
            cleaned.append("")
        else:
            in_pp = False
            cleaned.append(text)
    code = "\n".join(cleaned)
    # Precompute line numbers by offset for O(n) lexing.
    tokens = []
    line_starts = [0]
    for idx, ch in enumerate(code):
        if ch == "\n":
            line_starts.append(idx + 1)
    for m in TOKEN_RE.finditer(code):
        lineno = bisect.bisect_right(line_starts, m.start())
        tokens.append(Token(m.lastgroup, m.group(), lineno))
    return tokens


class _Parser:
    """Single-file micro-parser. Parse is two-stage: `parse` collects
    structure (classes, enums, fields, function body slices); callers
    then run `extract_bodies` once a global class index exists."""

    def __init__(self, path, rel, tokens):
        self.path = path
        self.rel = rel
        self.toks = tokens
        self.facts = FileFacts(rel)
        self.pending_bodies = []  # (FunctionFacts, body_token_slice)

    # -- token helpers ----------------------------------------------------
    def _match_close(self, i, open_t="{", close_t="}"):
        depth = 0
        n = len(self.toks)
        while i < n:
            t = self.toks[i].text
            if t == open_t:
                depth += 1
            elif t == close_t:
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return n - 1

    # -- structure parsing -------------------------------------------------
    def parse(self):
        self._parse_region(0, len(self.toks), [])
        return self.facts

    def _parse_region(self, i, end, scope):
        """Parses declarations between token indices [i, end). `scope` is
        the stack of enclosing ('ns'|'class', name) entries."""
        toks = self.toks
        while i < end:
            t = toks[i]
            if t.text == "namespace":
                j = i + 1
                name = ""
                while j < end and toks[j].text != "{" and toks[j].text != ";":
                    if toks[j].kind == "id":
                        name = toks[j].text
                    j += 1
                if j < end and toks[j].text == "{":
                    close = self._match_close(j)
                    self._parse_region(j + 1, close, scope + [("ns", name)])
                    i = close + 1
                else:
                    i = j + 1
                continue
            if t.text == "enum":
                i = self._parse_enum(i, end, scope)
                continue
            if t.text in ("class", "struct"):
                i = self._parse_class_or_decl(i, end, scope)
                continue
            if t.text == "template":
                i = self._skip_template_header(i, end)
                continue
            if t.text in ("using", "typedef", "friend", "static_assert"):
                while i < end and toks[i].text != ";":
                    if toks[i].text == "{":
                        i = self._match_close(i)
                    i += 1
                i += 1
                continue
            # Possible field or function at this scope.
            i = self._parse_member(i, end, scope)
        return i

    def _skip_template_header(self, i, end):
        # template < ... > : balance angle brackets naively.
        j = i + 1
        if j < end and self.toks[j].text == "<":
            depth = 0
            while j < end:
                if self.toks[j].text == "<":
                    depth += 1
                elif self.toks[j].text == ">":
                    depth -= 1
                    if depth == 0:
                        return j + 1
                elif self.toks[j].text == ">>":
                    depth -= 2
                    if depth <= 0:
                        return j + 1
                j += 1
        return j

    def _qual(self, scope, name):
        parts = [n for k, n in scope if k == "class"]
        parts.append(name)
        return "::".join(parts)

    def _parse_enum(self, i, end, scope):
        toks = self.toks
        j = i + 1
        if j < end and toks[j].text in ("class", "struct"):
            j += 1
        name = None
        while j < end and toks[j].text not in ("{", ";"):
            if toks[j].kind == "id" and name is None:
                name = toks[j].text
            j += 1
        if j >= end or toks[j].text == ";" or name is None:
            return j + 1
        close = self._match_close(j)
        enumerators = []
        depth = 0
        expect = True
        for k in range(j + 1, close):
            t = toks[k]
            if t.text in ("{", "(", "["):
                depth += 1
            elif t.text in ("}", ")", "]"):
                depth -= 1
            elif depth == 0:
                if t.text == ",":
                    expect = True
                elif expect and t.kind == "id":
                    enumerators.append(t.text)
                    expect = False
        qual = self._qual(scope, name)
        self.facts.enums[qual] = enumerators
        return close + 1

    def _parse_class_or_decl(self, i, end, scope):
        toks = self.toks
        j = i + 1
        name = None
        # The class name is the last plain identifier before '{', ':' (base
        # clause) or ';' (forward declaration); attribute macros like
        # CAPABILITY("mutex") appear as id '(' ... ')' groups and are skipped.
        while j < end and toks[j].text not in ("{", ";", ":"):
            if toks[j].kind == "id":
                if j + 1 < end and toks[j + 1].text == "(":
                    j = self._match_close(j + 1, "(", ")") + 1
                    continue
                if toks[j].text != "final":  # contextual keyword
                    name = toks[j].text
            j += 1
        if j >= end:
            return end
        if toks[j].text == ";":
            return j + 1  # forward declaration
        if toks[j].text == ":":  # base clause: skip to '{'
            while j < end and toks[j].text != "{":
                j += 1
            if j >= end:
                return end
        close = self._match_close(j)
        if name is not None:
            qual = self._qual(scope, name)
            self.facts.classes.setdefault(qual, {})
            short = name
            if short in self.facts.class_short and \
                    self.facts.class_short[short] != qual:
                self.facts.class_short[short] = None  # ambiguous
            else:
                self.facts.class_short[short] = qual
            self._parse_region(j + 1, close, scope + [("class", name)])
        # A variable may be declared after the class body; skip to ';'.
        k = close + 1
        while k < end and toks[k].text != ";":
            if toks[k].text == "{":
                k = self._match_close(k)
            k += 1
        return k + 1

    def _parse_member(self, i, end, scope):
        """Parses one member/declaration starting at i: a field, a function
        definition, or something to skip. Returns the next index."""
        toks = self.toks
        # Skip access specifiers and stray punctuation.
        if toks[i].text in ("public", "private", "protected"):
            j = i + 1
            if j < end and toks[j].text == ":":
                j += 1
            return j
        if toks[i].kind != "id" and toks[i].text not in ("~", "::"):
            return i + 1

        # Scan ahead to the first ';' or body '{' at depth 0.
        j = i
        paren_depth = 0
        saw_paren_group = False
        first_paren = None
        body = None
        semi = None
        while j < end:
            t = toks[j].text
            if t == "(":
                if paren_depth == 0 and first_paren is None:
                    first_paren = j
                paren_depth += 1
            elif t == ")":
                paren_depth -= 1
                if paren_depth == 0:
                    saw_paren_group = True
            elif paren_depth == 0:
                if t == ";":
                    semi = j
                    break
                if t == "{":
                    prev = toks[j - 1]
                    # Brace-init (`head{nullptr}`) directly follows an
                    # identifier/]>; a function body follows ')', 'const',
                    # annotation macros, 'noexcept', 'override', or ':'
                    # init-list material.
                    if prev.kind == "id" and not saw_paren_group:
                        j = self._match_close(j) + 1
                        continue
                    body = j
                    break
                if t == "=" and not saw_paren_group:
                    # default member initializer / assignment decl
                    pass
            j += 1
        if body is not None and first_paren is not None:
            return self._parse_function(i, first_paren, body, scope)
        if semi is not None:
            self._maybe_record_field(i, semi, scope)
            return semi + 1
        return (body if body is not None else end) + 1

    def _maybe_record_field(self, i, semi, scope):
        """Records `Type name_ [annotations];` member fields, including
        lock-order annotations, when directly inside a class."""
        classes = [n for k, n in scope if k == "class"]
        if not classes:
            return
        cls = "::".join(classes)
        toks = self.toks[i:semi]
        if not toks:
            return
        # Find the field name: the last identifier that is not inside an
        # annotation-macro argument list and not a macro name itself.
        ann = {"GUARDED_BY", "PT_GUARDED_BY", "ACQUIRED_BEFORE",
               "ACQUIRED_AFTER"}
        name = None
        type_tokens = []
        k = 0
        order_notes = []
        while k < len(toks):
            t = toks[k]
            if t.kind == "id" and t.text in ann and \
                    k + 1 < len(toks) and toks[k + 1].text == "(":
                close = k + 1
                depth = 0
                while close < len(toks):
                    if toks[close].text == "(":
                        depth += 1
                    elif toks[close].text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    close += 1
                arg = "".join(x.text for x in toks[k + 2:close])
                if t.text == "ACQUIRED_BEFORE":
                    order_notes.append(("before", arg, t.line))
                elif t.text == "ACQUIRED_AFTER":
                    order_notes.append(("after", arg, t.line))
                k = close + 1
                continue
            if t.text == "=":
                break
            if t.text == "(":
                return  # function declaration, not a data member
            if t.kind == "id":
                name = t.text
                type_tokens.append(t.text)
            elif t.text in ("::", "<", ">", "*", "&", ",", "[", "]"):
                type_tokens.append(t.text)
            k += 1
        if name is None:
            return
        # Type = everything before the final name occurrence.
        if type_tokens and type_tokens[-1] == name:
            type_tokens = type_tokens[:-1]
        type_str = "".join(type_tokens)
        if not type_str:
            return
        self.facts.classes.setdefault(cls, {})[name] = type_str
        for direction, arg, line in order_notes:
            self.facts.order_annotations.append(
                (cls, name, direction, arg, line))

    def _parse_function(self, i, paren, body, scope):
        toks = self.toks
        close_paren = self._match_close(paren, "(", ")")
        # Name: identifier immediately before '('; qualified names walk
        # back over `::`.
        name_idx = paren - 1
        if toks[name_idx].kind != "id":
            # operator overloads, conversion operators: skip the body.
            return self._match_close(body) + 1
        name_parts = [toks[name_idx].text]
        k = name_idx - 1
        is_dtor = False
        if k >= 0 and toks[k].text == "~":
            is_dtor = True
            name_parts[0] = "~" + name_parts[0]
            k -= 1
        while k > 0 and toks[k].text == "::" and toks[k - 1].kind == "id":
            name_parts.insert(0, toks[k - 1].text)
            k -= 2
        classes = [n for _, n in scope if _ == "class"]
        if len(name_parts) > 1:
            cls = "::".join(classes + name_parts[:-1]) if classes \
                else "::".join(name_parts[:-1])
        else:
            cls = "::".join(classes) if classes else None
        qualname = (cls + "::" if cls else "") + name_parts[-1]
        fn = FunctionFacts(qualname, cls, self.rel, toks[name_idx].line)
        short = name_parts[-1]
        cls_short = cls.split("::")[-1] if cls else None
        fn.is_lifecycle = is_dtor or (cls_short is not None
                                      and short == cls_short)

        # Parameters: split the top-level comma groups of ( ... ).
        self._parse_params(fn, paren + 1, close_paren)

        # Trailing REQUIRES / REQUIRES_SHARED annotations before the body.
        k = close_paren + 1
        while k < body:
            t = toks[k]
            if t.kind == "id" and t.text in ("REQUIRES", "REQUIRES_SHARED") \
                    and k + 1 < body and toks[k + 1].text == "(":
                c = self._match_close(k + 1, "(", ")")
                args = "".join(x.text for x in toks[k + 2:c])
                fn.requires.extend(a for a in args.split(",") if a)
                k = c + 1
                continue
            if t.text == ":":
                # Constructor init list: scan it for scoped-lock-style
                # member initializations? Not needed; skip to body.
                break
            k += 1

        body_close = self._match_close(body)
        self.facts.functions.append(fn)
        self.pending_bodies.append((fn, (body + 1, body_close)))
        return body_close + 1

    def _parse_params(self, fn, i, end):
        toks = self.toks
        group = []
        depth = 0
        groups = []
        for k in range(i, end):
            t = toks[k]
            if t.text in ("(", "<", "[", "{"):
                depth += 1
            elif t.text in (")", ">", "]", "}"):
                depth -= 1
            if t.text == "," and depth == 0:
                groups.append(group)
                group = []
            else:
                group.append(t)
        if group:
            groups.append(group)
        for g in groups:
            # Drop default arguments.
            for idx, t in enumerate(g):
                if t.text == "=":
                    g = g[:idx]
                    break
            ids = [t for t in g if t.kind == "id"]
            if len(ids) < 2:
                continue  # unnamed or too simple to matter
            name = ids[-1].text
            type_str = "".join(t.text for t in g[:-1]
                               if t is not g[-1]).replace("const", "")
            # Rebuild type from all tokens except the trailing name token.
            last = g[-1]
            if last.kind == "id" and last.text == name:
                type_str = "".join(t.text for t in g[:-1])
            fn.params[name] = type_str

    # -- body analysis -----------------------------------------------------
    def extract_bodies(self):
        for fn, (start, end) in self.pending_bodies:
            _BodyWalker(self, fn).walk(start, end)


class _Scope:
    __slots__ = ("locks", "ordered", "callback", "deferred")

    def __init__(self, ordered=False):
        self.locks = []       # (expr_chain, line) scoped acquisitions
        self.ordered = ordered
        self.callback = None  # synthetic held entry for WithExclusive
        self.deferred = False  # lambda body not invoked inline: outer
        #                        holds do not apply inside it


class _BodyWalker:
    """Walks one function body's tokens, tracking lock scopes."""

    def __init__(self, parser, fn):
        self.p = parser
        self.fn = fn
        self.toks = parser.toks
        self.scopes = [_Scope()]
        self.manual = []      # (expr_chain, line, scope_idx) manual holds
        # Pending flags applied to the next opened block.
        self.next_block_ordered = False
        self.pending_callback = None   # synthetic held for next block
        self.pending_deferred = False  # next block is a lambda body
        self.else_ordered_ready = False
        self.for_closes = []  # ')' of the for headers being walked

    def walk(self, start, end):
        toks = self.toks
        self._manual_ordered = False
        i = start
        while i < end:
            t = toks[i]
            text = t.text

            if self.for_closes and i == self.for_closes[-1]:
                # End of a for header: a structured binding's '[' in it
                # introduced no lambda, so the loop body is not deferred.
                self.for_closes.pop()
                self.pending_deferred = False
                i += 1
                continue

            if text == "{":
                sc = _Scope(ordered=self.next_block_ordered or
                            self._any_ordered_scope())
                if self.pending_callback is not None:
                    # WithExclusive-style: the lambda DOES run inline
                    # under the latch; it is not deferred.
                    sc.callback = self.pending_callback
                    self.pending_callback = None
                elif self.pending_deferred:
                    sc.deferred = True
                self.pending_deferred = False
                self.next_block_ordered = False
                self.scopes.append(sc)
                i += 1
                continue
            if text == "}":
                if len(self.scopes) > 1:
                    self.scopes.pop()
                i += 1
                continue

            if text == ";":
                # No lambda body follows once the statement ends
                # ([[attributes]] would otherwise leak a deferred flag).
                self.pending_deferred = False
                i += 1
                continue
            if text == "[":
                # Lambda introducer vs. array subscript/attribute: a
                # subscript's '[' directly follows an id/')'/']'.
                prev = toks[i - 1] if i > start else None
                if prev is None or (prev.kind != "id"
                                    and prev.text not in (")", "]")):
                    close = self.p._match_close(i, "[", "]")
                    j = close + 1
                    if j < end and toks[j].text == "(":
                        j = self.p._match_close(j, "(", ")") + 1
                    self.pending_deferred = True
                    i = j
                    continue

            if text == "if" and i + 1 < end and toks[i + 1].text == "(":
                close = self.p._match_close(i + 1, "(", ")")
                cond = toks[i + 2:close]
                if self._is_address_order_cond(cond):
                    self.next_block_ordered = True
                    self.else_ordered_ready = True
                i = close + 1
                continue
            if text == "else" and self.else_ordered_ready:
                self.next_block_ordered = True
                self.else_ordered_ready = False
                i += 1
                continue

            if text == "for" and i + 1 < end and toks[i + 1].text == "(":
                close = self.p._match_close(i + 1, "(", ")")
                self._scan_range_for(i + 2, close, t.line)
                # Walk the header too: a protected read or a .begin() in
                # a for-init, condition or increment counts like one in
                # the body.
                self.for_closes.append(close)
                i += 2
                continue

            if text == "switch" and i + 1 < end and toks[i + 1].text == "(":
                close = self.p._match_close(i + 1, "(", ")")
                i = close + 1
                # Attach the switch body scan; cases recorded flat.
                if i < end and toks[i].text == "{":
                    body_close = self.p._match_close(i)
                    self._scan_switch(t.line, i + 1, body_close)
                    # Keep walking inside for locks/calls too.
                continue

            # Scoped lock declaration: MutexLock name(&expr);
            if t.kind == "id" and text in SCOPED_LOCK_TYPES \
                    and i + 2 < end and toks[i + 1].kind == "id" \
                    and toks[i + 2].text == "(":
                close = self.p._match_close(i + 2, "(", ")")
                expr = [x.text for x in toks[i + 3:close]]
                self._record_acquire(t.line, expr,
                                     SCOPED_LOCK_TYPES[text], "scoped")
                self.scopes[-1].locks.append((expr, t.line))
                i = close + 1
                continue

            # Local declaration of an unordered container (for pass 3).
            # Generic local decl capture:
            if t.kind == "id" and self._try_local_decl(i, end):
                i = self._local_decl_end
                continue

            # Member function calls & manual lock ops.
            if t.kind == "id" and i + 1 < end and toks[i + 1].text == "(" \
                    and text not in KEYWORDS:
                recv = self._receiver_chain(i)
                if text in MANUAL_ACQUIRE and recv:
                    expr = recv
                    self._manual_ordered = self._any_ordered_scope() or \
                        self.next_block_ordered or self._manual_ordered
                    self._record_acquire(t.line, list(expr),
                                         MANUAL_ACQUIRE[text], "manual")
                    self.manual.append(
                        (list(expr), t.line, len(self.scopes) - 1))
                elif text in MANUAL_RELEASE and recv:
                    self._release_manual(recv)
                elif text in CALLBACK_HOLDS:
                    # x.WithExclusive(lambda): the lambda body runs under
                    # the latch's internal mutex. Record the pin, the
                    # synthetic acquisition, and arrange for the next
                    # block (the lambda body) to carry the held entry.
                    self.fn.pins.append((t.line, "with-exclusive"))
                    self._record_acquire(
                        t.line, ["<cb>", CALLBACK_HOLDS[text]], False,
                        "callback")
                    self.pending_callback = (CALLBACK_HOLDS[text], t.line)
                elif text in PIN_CALLS:
                    self.fn.pins.append((t.line, "pin"))
                elif text in PROTECTED_CALLS:
                    self.fn.protected_reads.append(
                        (t.line, text, self._held_chains()))
                    self.fn.calls.append(
                        Call(t.line, text, recv, self._held_chains()))
                elif text == "begin" and recv:
                    self.fn.iterations.append(
                        IterFact(t.line, recv, "begin"))
                else:
                    if text == "load" and len(recv) >= 2 and \
                            recv[-1] == "head":
                        self.fn.protected_reads.append(
                            (t.line, "head.load", self._held_chains()))
                    self.fn.calls.append(
                        Call(t.line, text, recv, self._held_chains()))
                i += 1
                continue

            i += 1

    # -- helpers -----------------------------------------------------------
    def _any_ordered_scope(self):
        return any(s.ordered for s in self.scopes[1:])

    def _innermost_deferred(self):
        for idx in range(len(self.scopes) - 1, 0, -1):
            if self.scopes[idx].deferred:
                return idx
        return None

    def _held_chains(self):
        """Lock holds in effect at the current point. Inside a deferred
        lambda body, holds from outside the lambda do not apply (the
        lambda runs later, without them)."""
        out = []
        d = self._innermost_deferred()
        if d is None:
            for r in self.fn.requires:
                out.append((["<req>", r], self.fn.line, False))
        for chain, line, depth in self.manual:
            if d is None or depth >= d:
                out.append((chain, line, self._manual_ordered))
        for idx, s in enumerate(self.scopes):
            if d is not None and idx < d:
                continue
            for chain, line in s.locks:
                out.append((chain, line, s.ordered))
            if s.callback is not None:
                out.append((["<cb>", s.callback[0]], s.callback[1], False))
        return out

    def _record_acquire(self, line, expr, shared, kind):
        ordered = (self._any_ordered_scope() or self.next_block_ordered or
                   (kind == "manual" and self._manual_ordered))
        held = self._held_chains()
        self.fn.acquisitions.append(
            Acquisition(line, expr, shared, ordered, held, kind))

    def _release_manual(self, recv):
        for idx in range(len(self.manual) - 1, -1, -1):
            if self.manual[idx][0] == recv:
                del self.manual[idx]
                return
        # Release of a differently-spelled alias: drop oldest with same
        # trailing field name.
        tail = recv[-1] if recv else None
        for idx in range(len(self.manual) - 1, -1, -1):
            if self.manual[idx][0] and self.manual[idx][0][-1] == tail:
                del self.manual[idx]
                return
        if not self.manual:
            self._manual_ordered = False

    def _receiver_chain(self, i):
        """Walks back from the callee-name token collecting the receiver
        chain, e.g. `other . latch_ . Lock (` -> ['other', '.', 'latch_']
        minus the final separator; returns [] for free calls."""
        toks = self.toks
        k = i - 1
        if k < 0 or toks[k].text not in (".", "->", "::"):
            return []
        chain = []
        while k >= 0:
            t = toks[k]
            if t.text in (".", "->", "::"):
                chain.insert(0, t.text)
                k -= 1
                continue
            if t.kind == "id" or t.text == ")":
                if t.text == ")":
                    # receiver is a call result; unsupported
                    return chain[1:] if chain else []
                chain.insert(0, t.text)
                k -= 1
                if k >= 0 and toks[k].text in (".", "->", "::"):
                    continue
                break
            if t.text == "this":
                chain.insert(0, "this")
                k -= 1
                break
            break
        # Drop the trailing separator before the callee.
        if chain and chain[-1] in (".", "->", "::"):
            chain = chain[:-1]
        return chain

    def _is_address_order_cond(self, cond):
        """True for address-comparison conditions: `this < &other`,
        `&a < &b`, `a < &b`, std::less<...>()(a, b) is not used here."""
        texts = [t.text for t in cond]
        if "<" not in texts and ">" not in texts:
            return False
        has_addr = "this" in texts or "&" in texts
        return has_addr

    def _try_local_decl(self, i, end):
        """Recognizes `Type name ...;` local declarations worth recording:
        unordered containers and class-typed locals (for receiver
        resolution). Returns True and sets _local_decl_end
        when consumed."""
        toks = self.toks
        # Qualified type chain: id (:: id)* possibly with <...> args.
        j = i
        type_parts = []
        while j < end:
            t = toks[j]
            if t.kind == "id":
                type_parts.append(t.text)
                j += 1
                if j < end and toks[j].text == "<":
                    depth = 0
                    while j < end:
                        if toks[j].text == "<":
                            depth += 1
                        elif toks[j].text in (">", ">>"):
                            depth -= 2 if toks[j].text == ">>" else 1
                            if depth <= 0:
                                j += 1
                                break
                        type_parts.append(toks[j].text)
                        j += 1
                    type_parts.append(">")
                if j < end and toks[j].text == "::":
                    type_parts.append("::")
                    j += 1
                    continue
                break
            break
        if not type_parts or j >= end:
            return False
        # Pointer/reference declarators between type and name.
        while j < end and toks[j].text in ("*", "&", "const"):
            if toks[j].text == "*":
                type_parts.append("*")
            j += 1
        # Next must be the variable name, then one of ; = ( {.
        if j >= end or toks[j].kind != "id":
            return False
        name = toks[j].text
        nxt = toks[j + 1].text if j + 1 < end else ";"
        if nxt not in (";", "=", "(", "{"):
            return False
        type_str = "".join(type_parts)
        interesting = ("unordered_" in type_str or type_str[0].isupper() or
                       "::" in type_str)
        if not interesting:
            return False
        self.fn.locals[name] = type_str
        # Consume through the declarator end.
        k = j + 1
        while k < end and toks[k].text != ";":
            if toks[k].text == "(":
                k = self.p._match_close(k, "(", ")")
            elif toks[k].text == "{":
                k = self.p._match_close(k, "{", "}")
            k += 1
        self._local_decl_end = j + 1  # re-scan initializer for calls
        return True

    def _scan_range_for(self, i, end, line):
        toks = self.toks
        # Classic for has ';' at depth 0; range-for has ':'.
        depth = 0
        colon = None
        for k in range(i, end):
            t = toks[k].text
            if t in ("(", "[", "{", "<"):
                depth += 1
            elif t in (")", "]", "}", ">"):
                depth -= 1
            elif depth == 0:
                if t == ";":
                    return  # classic for loop
                if t == ":" and colon is None:
                    colon = k
        if colon is None:
            return
        chain = [t.text for t in toks[colon + 1:end]]
        self.fn.iterations.append(IterFact(line, chain, "range-for"))

    def _scan_switch(self, line, i, end):
        toks = self.toks
        sw = SwitchFact(line)
        depth = 0
        k = i
        while k < end:
            t = toks[k]
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
            elif t.text == "switch" and depth > 0:
                # Nested switch: handled when the walker reaches it.
                pass
            elif depth == 0 and t.text == "case":
                label = []
                k += 1
                while k < end and toks[k].text != ":":
                    label.append(toks[k].text)
                    k += 1
                sw.cases.append((t.line, "".join(label)))
            elif depth == 0 and t.text == "default":
                sw.has_default = True
            k += 1
        self.fn.switches.append(sw)


def parse_file(path, repo_root):
    """Parses one file; returns (FileFacts, parser) — call
    parser.extract_bodies() after building the global class index."""
    rel = os.path.relpath(os.path.abspath(path), repo_root).replace(
        os.sep, "/")
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    allows = _collect_allows(raw)
    tokens = _lex(_strip(raw))
    parser = _Parser(path, rel, tokens)
    facts = parser.parse()
    facts.allows = allows
    return facts, parser
