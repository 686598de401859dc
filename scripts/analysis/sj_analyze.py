#!/usr/bin/env python3
"""sj_analyze: AST-level whole-program checks for the spatial-join engine.

Six repo-specific checkers run over a translation-unit-spanning call
graph (DESIGN.md §9):

  signal-safety   Every function transitively reachable from the flight
                  recorder's fatal-signal handler (and every function
                  marked SJ_SIGNAL_SAFE) must stay within an explicit
                  async-signal-safe allowlist: no allocation, no mutexes,
                  no stdio/iostream, no SJ_EVENT, no throw.
  lock-order      Extracts Mutex acquisition sites and SJ_REQUIRES /
                  SJ_EXCLUDES annotations, builds the acquired-while-held
                  graph, and fails on cycles or on edges that contradict
                  the documented storage-layer order
                  (HeapFile::mu_ -> BufferPool::mu_ -> DiskManager::mu_).
  hot-path        Functions marked SJ_HOT (per-pair join bodies, theta
                  kernels, FrozenTree node scans, slotted-page readers)
                  must not allocate, lock, throw, or make virtual calls,
                  transitively through every direct callee.

Three dataflow checkers (PR 10) run over per-function transfer
summaries iterated to a fixed point across the same call graph:

  wire-taint            Integers decoded from untrusted wire frames
                        (functions marked SJ_UNTRUSTED, e.g. WireReader
                        readers in server/protocol.cc) must pass an
                        SJ_VALIDATES sanitizer before reaching an
                        allocation size, container index, loop bound,
                        resize/reserve, or memcpy length — anywhere in
                        their interprocedural closure.
  blocking-under-lock   No Mutex may be held across a blocking sink
                        (send/recv/accept, CondVar::Wait*, disk I/O,
                        SJ_BLOCKING functions), computed from MutexLock
                        acquisition sites plus SJ_REQUIRES held-at-entry
                        annotations. CondVar waits are exempt for the
                        mutex they atomically release.
  cancellation          Every loop transitively reachable from
                        QueryScheduler dispatch must contain a
                        CancelToken::ShouldStop poll, an SJ_BOUNDED_WORK
                        marker, or a manifestly constant bound, so
                        DEADLINE_EXCEEDED is a proven property.

The dataflow checkers consume statement-level facts (assignments, call
arguments, returns, sinks, loop extents) produced by the shared textual
statement scanner under *both* frontends — under libclang the scanner
runs as a companion pass — so their verdicts are identical regardless
of which frontend drives the AST-level checkers. This mirrors how
signal roots and global mutexes are already harvested textually even in
libclang mode.

Frontends
---------
The analyzer has two interchangeable fact extractors that populate the
same per-function IR:

  libclang   Real AST walk via clang.cindex, driven by the exported
             compile_commands.json. Used when the bindings import and a
             matching libclang shared object loads (CI installs
             libclang==14.0.6).
  textual    A dependency-free fallback: a brace-depth scanner that
             recognizes function definitions, class/namespace context,
             call sites, MutexLock acquisitions, allocations, throws,
             and the SJ_* annotations from preprocessed-ish source text.
             It exists so the checkers run everywhere ctest runs, with
             no toolchain beyond Python.

`--frontend auto` (default) prefers libclang and falls back to textual.
Both frontends feed a per-file facts cache keyed on content + flags +
analyzer version, so re-runs only re-parse what changed.

Output
------
Human-readable text by default; `--json` emits the finding schema shared
with scripts/lint/sj_lint.py: a list of objects with exactly the keys
{rule, path, line, message, suppressed}.

Intentional exceptions live in a reviewed baseline file
(scripts/analysis/baseline.json), keyed by (rule, symbol, detail) so the
entries survive unrelated line churn. `--write-baseline` regenerates the
file from the current findings (justifications must then be filled in by
hand). Exit code is 0 when every finding is baseline-suppressed, 1
otherwise.
"""

import argparse
import bisect
import hashlib
import json
import os
import re
import sys

# Bumped whenever extraction or checker semantics change: the facts
# cache and the CI cache key both embed it, so a stale cache can never
# mask findings from a newer checker revision.
ANALYZER_VERSION = "2"

DEFAULT_SCAN_DIRS = ("src",)
DEFAULT_BASELINE = os.path.join("scripts", "analysis", "baseline.json")
DEFAULT_LOCK_ORDER = ["HeapFile::mu_", "BufferPool::mu_", "DiskManager::mu_"]
DEFAULT_DISPATCH = "QueryScheduler::Submit"

ALL_CHECKS = ("signal-safety", "lock-order", "hot-path",
              "wire-taint", "blocking-under-lock", "cancellation")

# Which rules each checker can emit — drives stale-baseline detection
# (a baseline entry for a rule whose checker ran, matching no finding,
# is itself a finding).
CHECK_RULES = {
    "signal-safety": ("signal-unsafe-call", "signal-alloc", "signal-lock",
                      "signal-throw", "signal-virtual-call", "signal-no-root"),
    "lock-order": ("lock-cycle", "lock-order-violation",
                   "lock-excludes-violation"),
    "hot-path": ("hot-alloc", "hot-lock", "hot-throw", "hot-virtual-call"),
    "wire-taint": ("wire-taint", "wire-taint-no-source"),
    "blocking-under-lock": ("lock-blocking-call",),
    "cancellation": ("cancel-unpolled-loop", "cancel-no-root"),
}

# --------------------------------------------------------------------------
# Policy tables
# --------------------------------------------------------------------------

# Names that look like calls to the textual scanner but are not.
NOT_A_CALL = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "typeid", "static_assert", "alignas", "noexcept", "assert",
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
    "defined", "case", "new", "delete", "throw", "do", "else", "goto",
    "co_await", "co_return", "co_yield", "operator", "template", "requires",
    "MutexLock",  # captured separately as a lock site
}

# Statement keywords that open a plain block, never a function body.
BLOCK_KEYWORDS = {
    "if", "for", "while", "switch", "do", "else", "try", "catch",
    "case", "default", "return", "goto",
}

# Leaf calls that are async-signal-safe by POSIX or by construction
# (lock-free atomics, the steady clock, raw byte moves). Matched on the
# last path component of the callee name.
SIGNAL_SAFE_LEAVES = {
    # POSIX async-signal-safe set (the subset this codebase uses).
    "write", "open", "close", "raise", "sigaction", "sigemptyset",
    "sigfillset", "sigaddset", "signal", "_exit", "abort", "getpid",
    "kill", "clock_gettime",
    # Raw byte moves / scans: no allocation, no locks, no errno games.
    "memset", "memcpy", "memmove", "memcmp", "strlen",
    # std::atomic operations are lock-free for the types used here.
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "atomic_signal_fence", "atomic_thread_fence",
    # steady_clock reads (clock_gettime(CLOCK_MONOTONIC) underneath).
    "now", "time_since_epoch", "count",
    # Pure value helpers / trivial accessors with no side effects.
    "min", "max", "duration_cast", "nanoseconds", "move", "size", "data",
    "begin", "end", "empty", "c_str", "get",
}

# Calls that are categorically banned in signal context even though the
# checker could not see inside them (libc/stdio, formatted logging).
SIGNAL_BANNED = {
    "malloc", "calloc", "realloc", "free", "printf", "fprintf", "sprintf",
    "snprintf", "vsnprintf", "vfprintf", "vprintf", "puts", "fputs",
    "fwrite", "fflush", "fopen", "fclose", "exit", "syslog",
    "SJ_EVENT", "Recordf", "va_start", "va_end", "va_arg",
}

# Callee names (last path component) that allocate. Used by both the
# hot-path checker (allocation ban) and the signal checker.
ALLOCATING_CALLS = {
    "make_unique", "make_shared", "push_back", "emplace_back", "emplace",
    "emplace_front", "push_front", "insert", "assign", "append", "resize",
    "reserve", "to_string", "str", "substr", "string", "vector", "deque",
    "map", "unordered_map", "set", "unordered_set", "ostringstream",
    "stringstream", "stoi", "stod", "operator new",
}

# Mutex-ish acquisition methods (receiver.Lock() style).
LOCK_METHODS = {"Lock", "TryLock"}

# Callee names (last path component) that may park the calling thread
# for an unbounded time: socket and disk I/O, condition waits, sleeps,
# thread joins, buffered-stream flushes. Unresolvable calls to these
# are blocking sinks for the blocking-under-lock checker; in-project
# functions become sinks transitively (or via SJ_BLOCKING).
BLOCKING_LEAVES = {
    # Sockets.
    "send", "recv", "sendto", "recvfrom", "sendmsg", "recvmsg",
    "accept", "accept4", "connect", "poll", "ppoll", "select",
    "epoll_wait", "getaddrinfo",
    # Disk.
    "pread", "pwrite", "fsync", "fdatasync", "read", "write",
    "fread", "fwrite", "fflush", "fgets", "flush", "open",
    # Waits / sleeps / joins.
    "wait", "wait_for", "wait_until", "sleep", "usleep", "nanosleep",
    "sleep_for", "sleep_until", "join",
}

# Condition-wait methods atomically release the mutex passed as their
# first argument, so that one mutex is exempt at the wait site.
CONDVAR_WAIT_METHODS = {"Wait", "WaitFor", "WaitUntil",
                        "wait", "wait_for", "wait_until"}

# Callee names whose arguments are taint sinks (allocation sizes,
# element counts, copy lengths). Values: the argument index that is the
# length/count, None when every argument is checked, or "tail" when
# every argument after the first is (assign/append/substr take content
# in position 0 — `s.assign(view)` copies bounded bytes — and sizes or
# offsets only from position 1 on).
TAINT_SINK_CALLS = {
    "resize": None, "reserve": None, "assign": "tail", "append": "tail",
    "at": None, "substr": "tail",
    "memcpy": 2, "memmove": 2, "memset": 2, "strncpy": 2, "memcmp": 2,
    "malloc": 0, "calloc": None, "alloca": 0,
}

RULE_DESCRIPTIONS = {
    "signal-unsafe-call": "call outside the async-signal-safe allowlist, "
                          "reachable from a fatal-signal handler",
    "signal-alloc": "allocation reachable from a fatal-signal handler",
    "signal-lock": "mutex acquisition reachable from a fatal-signal handler",
    "signal-throw": "throw reachable from a fatal-signal handler",
    "signal-virtual-call": "virtual dispatch reachable from a fatal-signal "
                           "handler",
    "signal-no-root": "no installed fatal-signal handler found (the checker "
                      "would silently cover nothing)",
    "lock-cycle": "cycle in the acquired-while-held graph",
    "lock-order-violation": "acquisition order contradicts the documented "
                            "lock hierarchy",
    "lock-excludes-violation": "function annotated SJ_EXCLUDES(mu) called "
                               "while mu is held",
    "hot-alloc": "allocation in an SJ_HOT function or its callees",
    "hot-lock": "mutex acquisition in an SJ_HOT function or its callees",
    "hot-throw": "throw in an SJ_HOT function or its callees",
    "hot-virtual-call": "virtual dispatch in an SJ_HOT function or its "
                        "callees",
    "wire-taint": "untrusted wire-derived value reaches an allocation "
                  "size, container index, loop bound, or copy length "
                  "without passing an SJ_VALIDATES sanitizer",
    "wire-taint-no-source": "no SJ_UNTRUSTED taint source found (the "
                            "wire-taint checker would silently cover "
                            "nothing)",
    "lock-blocking-call": "blocking call (socket/disk I/O, condition "
                          "wait, sleep, join) while a Mutex is held",
    "cancel-unpolled-loop": "loop reachable from QueryScheduler dispatch "
                            "with no CancelToken poll, SJ_BOUNDED_WORK "
                            "marker, or constant bound",
    "cancel-no-root": "no QueryScheduler dispatch definition found (the "
                      "cancellation checker would silently cover nothing)",
    "baseline-stale": "baseline entry matches no current finding — the "
                      "exception was fixed or renamed; delete the entry",
}


# --------------------------------------------------------------------------
# Finding / baseline model
# --------------------------------------------------------------------------

class Finding:
    """One checker result, identified for baselining by (rule, symbol,
    detail) so entries survive line churn."""

    def __init__(self, rule, path, line, message, symbol, detail):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.symbol = symbol
        self.detail = detail
        self.suppressed = False

    def key(self):
        return (self.rule, self.symbol, self.detail)

    def to_json(self):
        # The schema shared with sj_lint --json: exactly these keys.
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
        }


def load_baseline(path):
    """Returns {(rule, symbol, detail): justification}."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    entries = {}
    for entry in data.get("entries", []):
        key = (entry["rule"], entry["symbol"], entry["detail"])
        entries[key] = entry.get("justification", "")
    return entries


def write_baseline(path, findings):
    entries = []
    seen = set()
    for finding in findings:
        if finding.key() in seen:
            continue
        seen.add(finding.key())
        entries.append({
            "rule": finding.rule,
            "symbol": finding.symbol,
            "detail": finding.detail,
            "justification": "TODO: justify or fix",
        })
    entries.sort(key=lambda e: (e["rule"], e["symbol"], e["detail"]))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"version": 1, "entries": entries}, f, indent=2,
                  sort_keys=False)
        f.write("\n")


# --------------------------------------------------------------------------
# Per-function IR (shared by both frontends)
# --------------------------------------------------------------------------

class FunctionFacts:
    """Everything the checkers need to know about one function
    definition. `events` is the ordered body fact stream used by the
    lock-order checker: (kind, payload, line, depth) where kind is one of
    'call', 'lock', 'alloc', 'throw' and depth is the brace depth inside
    the body at the fact site (lock scopes end when depth drops below
    the acquisition depth).

    The dataflow checkers additionally consume (textual frontend only;
    under libclang a companion textual pass supplies them):
      params         parameter names in declaration order ("" keeps the
                     arity when a parameter is unnamed/unparsed)
      dflow          ordered statement-level facts, each a dict
                     {line, asgn: [lhs, [rhs_vars], merge] | None,
                      calls: [[callee, [[arg_vars], ...]], ...]
                      (innermost call first), sinks: [[kind, [vars]]],
                      ret: [vars] | None}
      loops          [[start_line, end_line, const_bounded, cond]] for
                     every for/while/do/range-for in the body
      bounded_lines  lines containing an SJ_BOUNDED_WORK marker
    """

    def __init__(self, qual, simple, file, line, class_ctx):
        self.qual = qual            # e.g. spatialjoin::exec::FrozenTree::NodeAt
        self.simple = simple        # NodeAt
        self.file = file            # repo-relative path
        self.line = line
        self.class_ctx = class_ctx  # innermost class name or ""
        self.annotations = []       # ["sj::hot", "sj::signal_safe"]
        self.requires = []          # raw SJ_REQUIRES expressions
        self.excludes = []          # raw SJ_EXCLUDES expressions
        self.events = []            # [(kind, payload, line, depth)]
        self.params = []            # parameter names, "" when unnamed
        self.dflow = []             # statement-level dataflow facts
        self.loops = []             # [[start, end, const_bounded, cond]]
        self.bounded_lines = []     # SJ_BOUNDED_WORK marker lines

    def key(self):
        return "%s@%s:%d" % (self.qual, self.file, self.line)

    def to_json(self):
        return {
            "qual": self.qual, "simple": self.simple, "file": self.file,
            "line": self.line, "class_ctx": self.class_ctx,
            "annotations": self.annotations, "requires": self.requires,
            "excludes": self.excludes, "events": self.events,
            "params": self.params, "dflow": self.dflow,
            "loops": self.loops, "bounded_lines": self.bounded_lines,
        }

    @staticmethod
    def from_json(d):
        fn = FunctionFacts(d["qual"], d["simple"], d["file"], d["line"],
                           d["class_ctx"])
        fn.annotations = d["annotations"]
        fn.requires = d["requires"]
        fn.excludes = d["excludes"]
        fn.events = [tuple(e) for e in d["events"]]
        fn.params = d.get("params", [])
        fn.dflow = d.get("dflow", [])
        fn.loops = d.get("loops", [])
        fn.bounded_lines = d.get("bounded_lines", [])
        return fn


class FileFacts:
    """Facts extracted from one scanned file."""

    def __init__(self, path):
        self.path = path
        self.functions = []       # [FunctionFacts]
        self.virtual_names = []   # method names declared virtual/override
        self.fields = []          # [(class, field, type_str)]
        self.global_mutexes = []  # namespace-scope Mutex variable names
        self.signal_roots = []    # function names assigned to sa_handler
        # Annotations found on *declarations* (header prototypes), keyed
        # so Program can attach them to the matching definitions:
        # [(class_or_empty, simple_name, kind, payload)] with kind in
        # {"hot", "signal_safe", "requires", "excludes"}.
        self.decl_annotations = []

    def to_json(self):
        return {
            "version": ANALYZER_VERSION,
            "path": self.path,
            "functions": [fn.to_json() for fn in self.functions],
            "virtual_names": self.virtual_names,
            "fields": self.fields,
            "global_mutexes": self.global_mutexes,
            "signal_roots": self.signal_roots,
            "decl_annotations": self.decl_annotations,
        }

    @staticmethod
    def from_json(d):
        facts = FileFacts(d["path"])
        facts.functions = [FunctionFacts.from_json(f) for f in d["functions"]]
        facts.virtual_names = d["virtual_names"]
        facts.fields = [tuple(f) for f in d["fields"]]
        facts.global_mutexes = d["global_mutexes"]
        facts.signal_roots = d["signal_roots"]
        facts.decl_annotations = [tuple(a) for a in d["decl_annotations"]]
        return facts


# --------------------------------------------------------------------------
# Textual frontend
# --------------------------------------------------------------------------

def strip_code(text):
    """Blanks comments, string/char literals, and preprocessor lines,
    preserving every line break so positions map back to line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i + 1 < n:
                out.append("  ")
                i += 2
        elif c == '"':
            # Raw string?
            j = len(out) - 1
            while j >= 0 and out[j].isalnum():
                j -= 1
            prefix = "".join(out[j + 1:])
            if prefix.endswith("R"):
                m = re.match(r'"([^(\s)\\]*)\(', text[i:])
                if m:
                    closer = ")" + m.group(1) + '"'
                    end = text.find(closer, i)
                    end = (end + len(closer)) if end != -1 else n
                    while i < end:
                        out.append("\n" if text[i] == "\n" else " ")
                        i += 1
                    continue
            out.append(" ")
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    out.append("  " if text[i + 1:i + 2] != "\n" else " \n")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        elif c == "'":
            out.append(" ")
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append(" ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    code = "".join(out)

    # Blank preprocessor directives (including continuation lines) so
    # macro definitions with braces cannot desynchronize the scanner.
    lines = code.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            while True:
                cont = lines[i].rstrip().endswith("\\")
                lines[i] = ""
                if not cont or i + 1 >= len(lines):
                    break
                i += 1
        i += 1
    return "\n".join(lines)


class _LineIndex:
    def __init__(self, code):
        self.starts = [0]
        for m in re.finditer("\n", code):
            self.starts.append(m.end())

    def line_of(self, pos):
        return bisect.bisect_right(self.starts, pos)


_FN_NAME_RE = re.compile(
    r"((?:~?[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)\s*$")
_CLASS_RE = re.compile(
    r"^(?:typedef\s+)?(?:class|struct|union)\b")
_CLASS_NAME_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:\[\[[^\]]*\]\]\s*)?"
    r"(?:alignas\s*\([^)]*\)\s*)?([A-Za-z_]\w*)")
_NS_RE = re.compile(r"^(?:inline\s+)?namespace(?:\s+([A-Za-z_][\w:]*))?\s*$")
_ENUM_RE = re.compile(r"^(?:typedef\s+)?enum\b")
_VIRTUAL_DECL_RE = re.compile(
    r"\bvirtual\b[^=]*?([A-Za-z_]\w*)\s*\(")
_OVERRIDE_DECL_RE = re.compile(
    r"([A-Za-z_]\w*)\s*\([^;{}]*\)\s*(?:const\s*)?(?:noexcept\s*)?"
    r"(?:override|final)\b")
_SA_HANDLER_RE = re.compile(
    r"sa_(?:sigaction|handler)\s*=\s*&?\s*((?:\w+\s*::\s*)*\w+)")
_GLOBAL_MUTEX_RE = re.compile(r"^(?:static\s+)?Mutex\s+([A-Za-z_]\w*)$")
_FIELD_RE = re.compile(
    r"^(.*?[\w>&*\]])\s+([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?$")
_REQUIRES_RE = re.compile(r"\bSJ_REQUIRES\s*\(([^()]*)\)")
_EXCLUDES_RE = re.compile(r"\bSJ_EXCLUDES\s*\(([^()]*)\)")

_CALL_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*(?:<[^<>;(){}=]*>)?\s*\(")
_MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+[A-Za-z_]\w*\s*\(([^()]*)\)")
_LOCK_CALL_RE = re.compile(
    r"([A-Za-z_][\w.:\->]*?)\s*(?:\.|->)\s*(Lock|TryLock)\s*\(\s*\)")
_NEW_RE = re.compile(r"\bnew\b\s*(?:\()?\s*[A-Za-z_(:]")
_THROW_RE = re.compile(r"\bthrow\b")
_CHECK_MACRO_RE = re.compile(r"\bSJ_D?CHECK\w*\s*\(")

_TRAILER_TOKEN_RE = re.compile(
    r"^(?:\s|const\b|noexcept\b(?:\s*\([^()]*\))?|override\b|final\b|"
    r"mutable\b|&&?|->\s*[\w:<>,&*\s]+?(?=\s*$)|"
    r"SJ_\w+(?:\s*\([^()]*\))?|try\b)+$")


def _first_word(text):
    m = re.match(r"\s*([A-Za-z_]\w*)", text)
    return m.group(1) if m else ""


def _match_paren(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


# Tokens that legitimately precede a call expression; anything else
# identifier-like before `name(` means the site is a declaration
# `Type name(args)` and the real callee is Type's constructor.
_PRECEDES_CALL = {
    "return", "throw", "else", "do", "case", "goto", "new", "delete",
    "co_return", "co_yield", "co_await", "and", "or", "not",
}
_BUILTIN_TYPES = {
    "const", "constexpr", "static", "auto", "volatile", "register",
    "thread_local", "mutable", "inline", "unsigned", "signed", "long",
    "short", "int", "char", "bool", "float", "double", "void", "size_t",
    "wchar_t",
}


def _decl_type_before(prev):
    """If the code before a `name(` site ends with a type token, the site
    is a declaration `Type name(args)`. Returns the type name (so the
    constructor call can be recorded), "" for builtin/cv types (nothing
    to record), or None when the site really is a call."""
    prev = prev.rstrip()
    if not prev or prev[-1] not in "&*>" and not (prev[-1].isalnum()
                                                  or prev[-1] == "_"):
        return None
    if prev[-1] in "&*":
        prev = prev[:-1].rstrip()
    if prev.endswith(">") and not prev.endswith("->"):
        depth = 0
        i = len(prev) - 1
        while i >= 0:
            if prev[i] == ">":
                depth += 1
            elif prev[i] == "<":
                depth -= 1
            if depth == 0:
                break
            i -= 1
        if depth != 0 or i < 0:
            return None
        prev = prev[:i].rstrip()
    m = re.search(r"((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)$", prev)
    if not m:
        return None
    tok = re.sub(r"\s+", "", m.group(1))
    simple = tok.rsplit("::", 1)[-1]
    if simple in _PRECEDES_CALL:
        return None
    if simple in _BUILTIN_TYPES:
        return ""
    return tok


def _mask_check_macros(body):
    """Blanks SJ_CHECK*/SJ_DCHECK* invocation argument lists: the abort
    path is exempt from purity rules, and its stream inserters would
    otherwise read as allocation."""
    out = list(body)
    for m in _CHECK_MACRO_RE.finditer(body):
        open_pos = body.index("(", m.start())
        close_pos = _match_paren(body, open_pos)
        if close_pos == -1:
            close_pos = len(body) - 1
        for i in range(m.start(), close_pos + 1):
            if out[i] != "\n":
                out[i] = " "
    return "".join(out)


# --------------------------------------------------------------------------
# Statement-level dataflow extraction (shared by both frontends: under
# libclang this scanner runs as a companion pass over the same text)
# --------------------------------------------------------------------------

_VARCHAIN_RE = re.compile(
    r"[A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*")
_LOOP_HEAD_RE = re.compile(r"\b(for|while)\s*\(")
_DO_RE = re.compile(r"\bdo\s*\{")
_BOUNDED_WORK_RE = re.compile(r"\bSJ_BOUNDED_WORK\b")
# The head of an if/while/switch whose body may share its statement chunk
# (`while (d.Next(&f)) Handle(f);`).
_CONTROL_HEAD_RE = re.compile(r"\s*(?:else\s+)?(?:if|while|switch)\s*\(")
# A lambda's capture list: `[...]` where an expression starts, followed by
# its parameters, its body, or the chunk's end (the body's `{` ends it).
_LAMBDA_CAPTURES_RE = re.compile(
    r"((?:^|[(,=?:]|\breturn)\s*)\[([^\][]*)\]"
    r"(?=\s*(?:\(|\{|mutable\b|->|$))")
# A loop condition comparing one variable against an integer literal, a
# kConstant, or a SHOUTY constant does manifestly bounded work.
_BOUNDED_COND_RE = re.compile(
    r"^\s*[\w.\[\]>\-]+\s*(?:<=?|!=)\s*"
    r"(?:\d+[uUlL]*|k[A-Z]\w*|[A-Z][A-Z0-9_]{2,}|sizeof\s*\([^()]*\))"
    r"(?:\s*[-+]\s*\d+[uUlL]*)?\s*$")

# Identifier bases that are never variables worth tracking.
_DF_NOISE = (NOT_A_CALL | _BUILTIN_TYPES | {
    "std", "true", "false", "nullptr", "NULL", "namespace", "using",
    "break", "continue", "default", "public", "private", "protected",
})


def _base_vars(expr):
    """Base identifiers of every variable-like chain in expr
    (`reply.result.matches` contributes `reply`; `this->n_` contributes
    `n_`). Taint is tracked at base-identifier granularity."""
    out = []
    for m in _VARCHAIN_RE.finditer(expr):
        comps = [c for c in re.split(r"\s*(?:\.|->)\s*", m.group(0)) if c]
        base = comps[0]
        if base == "this" and len(comps) > 1:
            base = comps[1]
        if base not in _DF_NOISE and base not in out:
            out.append(base)
    return out


def _split_top_level(text, sep=",", angle=True):
    """Splits on `sep` at zero bracket depth. `angle=False` skips <>
    tracking (needed when the pieces may contain comparisons, e.g.
    splitting a for-head on ';')."""
    opens, closes = ("([{<", ")]}>") if angle else ("([{", ")]}")
    parts, cur, depth = [], [], 0
    for c in text:
        if c in opens:
            depth += 1
        elif c in closes:
            depth = max(0, depth - 1)
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def _parse_params(head):
    """Parameter names from a function head, "" for unnamed/unparsed
    entries so argument indexes stay aligned."""
    paren = head.find("(")
    if paren < 0:
        return []
    close = _match_paren(head, paren)
    if close < 0:
        return []
    inner = head[paren + 1:close].strip()
    if not inner or inner == "void":
        return []
    params = []
    for part in _split_top_level(inner):
        part = part.split("=")[0].strip()
        part = re.sub(r"\[[^\]]*\]\s*$", "", part).strip()
        m = re.search(r"([A-Za-z_]\w*)\s*$", part)
        name = m.group(1) if m else ""
        if name in _BUILTIN_TYPES or name in NOT_A_CALL:
            name = ""
        params.append(name)
    return params


def _find_assign(s):
    """Position of the top-level assignment operator in a statement, or
    None. Returns (index_of_'=', is_compound)."""
    depth = 0
    i = 0
    while i < len(s):
        c = s[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth = max(0, depth - 1)
        elif c == "=" and depth == 0:
            prev = s[i - 1] if i else ""
            nxt = s[i + 1] if i + 1 < len(s) else ""
            if nxt == "=":
                i += 2
                continue
            if prev in "=!<>":
                i += 1
                continue
            return i, prev in "+-*/%&|^"
        i += 1
    return None


def _lhs_var(txt):
    """Base variable written by the left-hand side of an assignment."""
    txt = re.sub(r"\[[^\]]*\]\s*$", "", txt.strip())
    m = re.search(
        r"((?:this\s*->\s*)?[A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)"
        r"\s*$", txt)
    if not m:
        return ""
    comps = [c for c in re.split(r"\s*(?:\.|->)\s*", m.group(1)) if c]
    base = comps[0]
    if base == "this" and len(comps) > 1:
        base = comps[1]
    if base in _DF_NOISE:
        return ""
    return base


def _match_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def _control_head_end(body, start, end):
    """End of an if/while/switch head that opens the chunk
    [start, end) and is followed by a one-statement body in the same
    chunk, or None. The head's calls run before the body's, so the two
    are evaluated as separate statements in that order."""
    m = _CONTROL_HEAD_RE.match(body, start, end)
    if not m:
        return None
    close = _match_paren(body, m.end() - 1)
    if close == -1 or close >= end or not body[close + 1:end].strip():
        return None
    return close + 1


def _df_statement(body, start, end, body_start, lines):
    """One statement chunk -> a dflow entry dict, or None. A lambda's
    captures are blanked: they feed the lambda's body (analysed with
    the enclosing function), not the value of the expression that
    creates it."""
    s = _LAMBDA_CAPTURES_RE.sub(
        lambda m: m.group(1) + "[" + " " * len(m.group(2)) + "]",
        body[start:end])
    if not s.strip():
        return None
    lead = len(s) - len(s.lstrip())
    entry = {"line": lines.line_of(body_start + start + lead),
             "asgn": None, "calls": [], "sinks": [], "ret": None}
    if re.match(r"\s*(?:co_)?return\b", s):
        entry["ret"] = _base_vars(s.split("return", 1)[1])
    eq = _find_assign(s)
    if eq is not None:
        pos, compound = eq
        lhs = _lhs_var(s[:pos])
        if lhs:
            entry["asgn"] = [lhs, _base_vars(s[pos + 1:]), compound]
    for m in _CALL_RE.finditer(s):
        name = re.sub(r"\s+", "", m.group(1))
        simple = name.rsplit("::", 1)[-1]
        if simple in NOT_A_CALL or simple in BLOCK_KEYWORDS:
            continue
        decl_type = _decl_type_before(s[:m.start()])
        if decl_type is not None:
            if not decl_type:
                continue
            name = decl_type
        open_pos = s.find("(", m.end() - 1)
        if open_pos < 0:
            continue
        close = _match_paren(s, open_pos)
        arg_txt = s[open_pos + 1:close] if close != -1 else s[open_pos + 1:]
        if arg_txt.strip():
            args = [_base_vars(a) for a in _split_top_level(arg_txt)]
        else:
            args = []
        entry["calls"].append([name, args, m.start()])
    # Innermost (rightmost) call first: its result taint lands in the
    # statement pool before enclosing calls consume it.
    entry["calls"].sort(key=lambda c: -c[2])
    entry["calls"] = [[n, a] for n, a, _pos in entry["calls"]]
    for m in re.finditer(r"([A-Za-z_]\w*)\s*\[([^\][]*)\]", s):
        if re.search(r"\bnew\b[\w\s:<>]*$", s[:m.start()]):
            continue  # `new T[n]` is the alloc-size sink below
        if m.group(1) in _DF_NOISE:
            continue
        vars_ = _base_vars(m.group(2))
        if vars_:
            entry["sinks"].append(["index", vars_])
    for m in re.finditer(r"\bnew\b[^;()=]*?\[([^\][]*)\]", s):
        vars_ = _base_vars(m.group(1))
        if vars_:
            entry["sinks"].append(["alloc-size", vars_])
    if (entry["asgn"] or entry["calls"] or entry["sinks"]
            or entry["ret"] is not None):
        return entry
    return None


def _extract_dataflow(code, body_start, body_end, fn, lines):
    """Populates fn.dflow, fn.loops, and fn.bounded_lines from the body
    span. Statement boundaries are `;`, `{`, `}` — `for(init;cond;inc)`
    heads intentionally split into three mini-statements, which the
    generic assignment/call extraction handles correctly."""
    body = _mask_check_macros(code[body_start:body_end])

    for m in _BOUNDED_WORK_RE.finditer(body):
        fn.bounded_lines.append(lines.line_of(body_start + m.start()))

    entries = []

    def add_chunk(lo, hi):
        cut = _control_head_end(body, lo, hi)
        for a, b in ([(lo, hi)] if cut is None else [(lo, cut), (cut, hi)]):
            entry = _df_statement(body, a, b, body_start, lines)
            if entry:
                entries.append(entry)

    start = 0
    for i, c in enumerate(body):
        if c in ";{}":
            add_chunk(start, i)
            start = i + 1
    add_chunk(start, len(body))

    for m in _LOOP_HEAD_RE.finditer(body):
        open_pos = body.find("(", m.end() - 1)
        close = _match_paren(body, open_pos)
        if close == -1:
            continue
        inner = body[open_pos + 1:close]
        if m.group(1) == "for":
            parts = _split_top_level(inner, ";", angle=False)
            cond = parts[1] if len(parts) == 3 else ""  # range-for: ""
            range_for = len(parts) == 1
        else:
            cond = inner
            range_for = False
        # Body extent: a brace block or a single statement.
        j = close + 1
        while j < len(body) and body[j].isspace():
            j += 1
        if j < len(body) and body[j] == "{":
            end_pos = _match_brace(body, j)
        else:
            depth = 0
            end_pos = len(body) - 1
            for k in range(j, len(body)):
                if body[k] in "([{":
                    depth += 1
                elif body[k] in ")]}":
                    depth -= 1
                elif body[k] == ";" and depth == 0:
                    end_pos = k
                    break
        bounded = (not range_for and cond.strip() != "" and
                   bool(_BOUNDED_COND_RE.match(cond)))
        fn.loops.append([lines.line_of(body_start + m.start()),
                         lines.line_of(body_start + end_pos),
                         bounded, re.sub(r"\s+", " ", cond.strip())[:80]])
        # A loop condition is a numeric-bound sink only when it actually
        # compares something: `while (decoder.Next(&frame))` iterates on
        # a call result, and tainting its operands as loop bounds would
        # flag every pump loop over wire data.
        cond_vars = _base_vars(cond) if re.search(r"[<>]|!=", cond) else []
        if cond_vars:
            entries.append({"line": lines.line_of(body_start + open_pos),
                            "asgn": None, "calls": [],
                            "sinks": [["loop-bound", cond_vars]],
                            "ret": None})
    for m in _DO_RE.finditer(body):
        end_pos = _match_brace(body, body.find("{", m.start()))
        fn.loops.append([lines.line_of(body_start + m.start()),
                         lines.line_of(body_start + end_pos), False, "do"])

    entries.sort(key=lambda e: e["line"])
    fn.dflow = entries
    fn.loops.sort()
    fn.bounded_lines.sort()


class _Scope:
    def __init__(self, kind, name, fn=None):
        self.kind = kind  # namespace | class | function | block | enum
        self.name = name
        self.fn = fn      # FunctionFacts for function scopes
        self.body_start = 0


def _extract_body_facts(code, body_start, body_end, fn, lines):
    """Populates fn.events from the body span [body_start, body_end)."""
    body = _mask_check_macros(code[body_start:body_end])

    facts = []  # (pos, kind, payload)
    lock_spans = []
    for m in _MUTEXLOCK_RE.finditer(body):
        facts.append((m.start(), "lock", m.group(1).strip()))
        lock_spans.append((m.start(), m.end()))
    for m in _LOCK_CALL_RE.finditer(body):
        facts.append((m.start(), "lock",
                      re.sub(r"\s+", "", m.group(1))))
        lock_spans.append((m.start(), m.end()))
    for m in _NEW_RE.finditer(body):
        facts.append((m.start(), "alloc", "new"))
    for m in _THROW_RE.finditer(body):
        facts.append((m.start(), "throw", "throw"))
    for m in _CALL_RE.finditer(body):
        name = re.sub(r"\s+", "", m.group(1))
        simple = name.rsplit("::", 1)[-1]
        if simple in NOT_A_CALL:
            continue
        if any(s <= m.start() < e for s, e in lock_spans):
            continue  # the MutexLock/Lock site itself
        decl_type = _decl_type_before(body[:m.start()])
        if decl_type is not None:
            # `Type name(args)`: the constructor runs, not `name`.
            if decl_type:
                facts.append((m.start(), "call", decl_type))
            continue
        facts.append((m.start(), "call", name))

    facts.sort(key=lambda f: f[0])

    depth = 0
    fi = 0
    for i, c in enumerate(body):
        while fi < len(facts) and facts[fi][0] == i:
            pos, kind, payload = facts[fi]
            line = lines.line_of(body_start + pos)
            fn.events.append((kind, payload, line, depth))
            fi += 1
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            # Scope boundary: a MutexLock declared inside this brace pair
            # is destroyed here. Depth alone cannot distinguish sibling
            # scopes (`{ MutexLock l(mu_); } if (x) { Blocking(); }` —
            # both at depth 1), so the held-set walks consume these
            # explicit close events to drop dead locks.
            fn.events.append(("scope-close", "",
                              lines.line_of(body_start + i), depth))
    # Flush any fact recorded exactly at the final brace (unlikely).
    while fi < len(facts):
        pos, kind, payload = facts[fi]
        fn.events.append((kind, payload, lines.line_of(body_start + pos), 0))
        fi += 1


def _classify_head(head, scopes):
    """Returns (kind, name-or-head-info) for the text preceding a '{'."""
    stripped = head.strip()
    if not stripped:
        return ("block", None)
    if stripped[-1] in "=,([":
        return ("block", None)  # brace initializer
    first = _first_word(stripped)
    if first in BLOCK_KEYWORDS:
        return ("block", None)
    m = _NS_RE.match(stripped)
    if m:
        return ("namespace", m.group(1) or "")
    if _ENUM_RE.match(stripped):
        return ("enum", None)
    if _CLASS_RE.match(stripped):
        m = _CLASS_NAME_RE.search(stripped)
        return ("class", m.group(1) if m else "")
    # Function definition: identifier immediately before the first
    # top-level '(' in the head, with an acceptable trailer after the
    # matching ')'.
    paren = stripped.find("(")
    if paren <= 0:
        return ("block", None)
    name_m = _FN_NAME_RE.search(stripped[:paren])
    if not name_m:
        return ("block", None)
    name = re.sub(r"\s+", "", name_m.group(1))
    simple = name.rsplit("::", 1)[-1]
    if simple in NOT_A_CALL or simple in BLOCK_KEYWORDS:
        return ("block", None)
    close = _match_paren(stripped, paren)
    if close == -1:
        return ("block", None)
    trailer = stripped[close + 1:].strip()
    if trailer and not trailer.startswith(":") \
            and not _TRAILER_TOKEN_RE.match(trailer):
        return ("block", None)
    return ("function", (name, head))


def extract_textual(rel_path, text):
    """The fallback frontend: extracts FileFacts from raw source text."""
    code = strip_code(text)
    lines = _LineIndex(code)
    facts = FileFacts(rel_path)

    for m in _SA_HANDLER_RE.finditer(code):
        name = re.sub(r"\s+", "", m.group(1)).rsplit("::", 1)[-1]
        if name not in ("SIG_DFL", "SIG_IGN"):
            facts.signal_roots.append(name)

    scopes = []
    head_start = 0

    def ns_prefix():
        return [s.name for s in scopes
                if s.kind in ("namespace", "class") and s.name]

    def class_ctx():
        for s in reversed(scopes):
            if s.kind == "class":
                return s.name
        return ""

    def harvest_decl_annotations(stmt):
        """Attaches SJ_* contract annotations found on a declaration
        (prototype) to the named function, so marking the header is
        enough even when the definition lives in a .cc."""
        if not re.search(r"\bSJ_(?:HOT|SIGNAL_SAFE|REQUIRES|EXCLUDES|"
                         r"UNTRUSTED|VALIDATES|BLOCKING)\b", stmt):
            return
        paren = stmt.find("(")
        if paren <= 0:
            return
        name_m = _FN_NAME_RE.search(stmt[:paren])
        if not name_m:
            return
        simple = re.sub(r"\s+", "", name_m.group(1)).rsplit("::", 1)[-1]
        if simple in NOT_A_CALL or simple in BLOCK_KEYWORDS:
            return
        cls = class_ctx()
        for token, kind in (("SJ_HOT", "hot"),
                            ("SJ_SIGNAL_SAFE", "signal_safe"),
                            ("SJ_UNTRUSTED", "untrusted"),
                            ("SJ_VALIDATES", "validates"),
                            ("SJ_BLOCKING", "blocking")):
            if re.search(r"\b%s\b" % token, stmt):
                facts.decl_annotations.append((cls, simple, kind, ""))
        for expr in _REQUIRES_RE.findall(stmt):
            facts.decl_annotations.append(
                (cls, simple, "requires", expr.strip()))
        for expr in _EXCLUDES_RE.findall(stmt):
            facts.decl_annotations.append(
                (cls, simple, "excludes", expr.strip()))

    def harvest_statement(stmt):
        """Virtual-method, field, and global-mutex harvesting at ';'."""
        in_class = any(s.kind == "class" for s in scopes)
        in_function = any(s.kind == "function" for s in scopes)
        if not in_function:
            harvest_decl_annotations(stmt)
        if in_class and not in_function:
            vm = _VIRTUAL_DECL_RE.search(stmt)
            if vm:
                facts.virtual_names.append(vm.group(1))
            om = _OVERRIDE_DECL_RE.search(stmt)
            if om:
                facts.virtual_names.append(om.group(1))
            if "(" not in re.sub(r"SJ_\w+\s*\([^()]*\)", "", stmt):
                decl = re.sub(r"SJ_\w+\s*\([^()]*\)", "", stmt)
                decl = re.sub(r"=[^;]*$", "", decl).strip()
                decl = re.sub(r"^\s*(?:public|private|protected)\s*:",
                              "", decl).strip()
                fm = _FIELD_RE.match(decl)
                if fm:
                    facts.fields.append(
                        (class_ctx(), fm.group(2), fm.group(1).strip()))
        elif not in_function:
            decl = re.sub(r"=[^;]*$", "", stmt).strip()
            gm = _GLOBAL_MUTEX_RE.match(decl)
            if gm:
                facts.global_mutexes.append(gm.group(1))

    i = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "{":
            head = code[head_start:i]
            kind, info = _classify_head(head, scopes)
            scope = _Scope(kind, None)
            if kind == "namespace":
                scope.name = info
            elif kind == "class":
                scope.name = info
            elif kind == "function":
                name, full_head = info
                simple = name.rsplit("::", 1)[-1]
                # Qualified written names contribute their class part.
                written_prefix = name.split("::")[:-1]
                qual_parts = ns_prefix() + written_prefix + [simple]
                cctx = (written_prefix[-1] if written_prefix
                        else class_ctx())
                fn = FunctionFacts("::".join(qual_parts), simple, rel_path,
                                   lines.line_of(i), cctx)
                if re.search(r"\bSJ_HOT\b", full_head):
                    fn.annotations.append("sj::hot")
                if re.search(r"\bSJ_SIGNAL_SAFE\b", full_head):
                    fn.annotations.append("sj::signal_safe")
                if re.search(r"\bSJ_UNTRUSTED\b", full_head):
                    fn.annotations.append("sj::untrusted")
                if re.search(r"\bSJ_VALIDATES\b", full_head):
                    fn.annotations.append("sj::validates")
                if re.search(r"\bSJ_BLOCKING\b", full_head):
                    fn.annotations.append("sj::blocking")
                fn.params = _parse_params(full_head.strip())
                fn.requires = [x.strip()
                               for x in _REQUIRES_RE.findall(full_head)]
                fn.excludes = [x.strip()
                               for x in _EXCLUDES_RE.findall(full_head)]
                if re.search(r"\b(?:virtual|override|final)\b", full_head):
                    facts.virtual_names.append(simple)
                scope.fn = fn
                scope.body_start = i + 1
            scopes.append(scope)
            head_start = i + 1
        elif c == "}":
            if scopes:
                scope = scopes.pop()
                if scope.kind == "function":
                    _extract_body_facts(code, scope.body_start, i,
                                        scope.fn, lines)
                    _extract_dataflow(code, scope.body_start, i,
                                      scope.fn, lines)
                    facts.functions.append(scope.fn)
            head_start = i + 1
        elif c == ";":
            harvest_statement(code[head_start:i])
            head_start = i + 1
        i += 1
    return facts


# --------------------------------------------------------------------------
# libclang frontend
# --------------------------------------------------------------------------

def libclang_available():
    try:
        import clang.cindex as ci  # noqa: F401
        ci.Index.create()
        return True
    except Exception:
        return False


def _clang_qual(cursor):
    import clang.cindex as ci
    parts = []
    parent = cursor.semantic_parent
    while parent is not None and parent.kind != ci.CursorKind.TRANSLATION_UNIT:
        if parent.spelling:
            parts.append(parent.spelling)
        parent = parent.semantic_parent
    parts.reverse()
    parts.append(cursor.spelling)
    return "::".join(p for p in parts if p)


def extract_libclang(root, rel_path, compile_args):
    """Real AST extraction via clang.cindex. Returns FileFacts covering
    every in-project function definition seen in this TU (the caller
    dedupes header functions that appear in several TUs)."""
    import clang.cindex as ci

    abs_path = os.path.join(root, rel_path)
    index = ci.Index.create()
    tu = index.parse(abs_path, args=compile_args,
                     options=ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
    facts = FileFacts(rel_path)

    fn_kinds = {
        ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
        ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR,
        ci.CursorKind.FUNCTION_TEMPLATE,
    }

    def in_project(cursor):
        loc = cursor.location
        if loc.file is None:
            return None
        try:
            rel = os.path.relpath(os.path.realpath(loc.file.name),
                                  os.path.realpath(root))
        except ValueError:
            return None
        if rel.startswith(".."):
            return None
        return rel.replace(os.sep, "/")

    def collect_body(cursor, fn, depth):
        for child in cursor.get_children():
            kind = child.kind
            line = child.location.line or fn.line
            if kind == ci.CursorKind.CXX_NEW_EXPR:
                fn.events.append(("alloc", "new", line, depth))
            elif kind == ci.CursorKind.CXX_THROW_EXPR:
                fn.events.append(("throw", "throw", line, depth))
            elif kind == ci.CursorKind.CALL_EXPR:
                ref = child.referenced
                name = None
                if ref is not None and ref.spelling:
                    name = _clang_qual(ref)
                elif child.spelling:
                    name = child.spelling
                if name:
                    virtual = bool(
                        ref is not None
                        and ref.kind == ci.CursorKind.CXX_METHOD
                        and ref.is_virtual_method())
                    fn.events.append((
                        "vcall" if virtual else "call", name, line, depth))
            elif kind == ci.CursorKind.VAR_DECL and \
                    "MutexLock" in child.type.spelling:
                tokens = [t.spelling for t in child.get_tokens()]
                if "(" in tokens:
                    expr = "".join(
                        tokens[tokens.index("(") + 1:
                               len(tokens) - 1 - tokens[::-1].index(")")])
                    fn.events.append(("lock", expr, line, depth))
            new_depth = depth + (
                1 if kind == ci.CursorKind.COMPOUND_STMT else 0)
            collect_body(child, fn, new_depth)

    def visit(cursor):
        for child in cursor.get_children():
            rel = in_project(child)
            if rel is None:
                continue
            if child.kind in fn_kinds and child.is_definition():
                fn = FunctionFacts(
                    _clang_qual(child), child.spelling, rel,
                    child.location.line,
                    child.semantic_parent.spelling
                    if child.semantic_parent is not None and
                    child.semantic_parent.kind in (
                        ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL)
                    else "")
                for sub in child.get_children():
                    if sub.kind == ci.CursorKind.ANNOTATE_ATTR:
                        fn.annotations.append(sub.spelling)
                if child.kind == ci.CursorKind.CXX_METHOD and \
                        child.is_virtual_method():
                    facts.virtual_names.append(child.spelling)
                collect_body(child, fn, 0)
                facts.functions.append(fn)
            elif child.kind == ci.CursorKind.CXX_METHOD and \
                    child.is_virtual_method():
                facts.virtual_names.append(child.spelling)
            if child.kind in (ci.CursorKind.NAMESPACE,
                              ci.CursorKind.CLASS_DECL,
                              ci.CursorKind.STRUCT_DECL,
                              ci.CursorKind.LINKAGE_SPEC):
                visit(child)

    visit(tu.cursor)

    # Signal roots + global mutexes come from a cheap textual pass even
    # in libclang mode (the assignments are plain statements).
    with open(abs_path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    code = strip_code(text)
    for m in _SA_HANDLER_RE.finditer(code):
        name = re.sub(r"\s+", "", m.group(1)).rsplit("::", 1)[-1]
        if name not in ("SIG_DFL", "SIG_IGN"):
            facts.signal_roots.append(name)
    for m in re.finditer(r"(?m)^\s*(?:static\s+)?Mutex\s+([A-Za-z_]\w*)\s*;",
                         code):
        facts.global_mutexes.append(m.group(1))
    return facts


def load_compile_commands(path):
    """Returns {abs source path: [clang args]}."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as f:
        db = json.load(f)
    commands = {}
    for entry in db:
        args = entry.get("arguments")
        if args is None:
            args = entry.get("command", "").split()
        keep = []
        skip_next = False
        for a in args[1:]:
            if skip_next:
                skip_next = False
                continue
            if a in ("-c", entry["file"]):
                continue
            if a == "-o":
                skip_next = True
                continue
            keep.append(a)
        src = os.path.realpath(
            os.path.join(entry.get("directory", "."), entry["file"]))
        commands[src] = keep
    return commands


# --------------------------------------------------------------------------
# Program index
# --------------------------------------------------------------------------

class Program:
    """The merged whole-program view the checkers run over."""

    def __init__(self, file_facts):
        self.functions = {}       # key -> FunctionFacts
        self.by_simple = {}       # simple name -> [key]
        self.by_qual = {}         # qual -> [key]
        self.virtual_names = set()
        self.fields = {}          # (class, field) -> type_str
        self.field_classes = {}   # field -> set of classes
        self.global_mutexes = set()
        self.signal_roots = set()

        seen = set()
        decl_annotations = {}  # (class, simple) -> [(kind, payload)]
        for facts in file_facts:
            self.virtual_names.update(facts.virtual_names)
            self.global_mutexes.update(facts.global_mutexes)
            self.signal_roots.update(facts.signal_roots)
            for cls, field, type_str in facts.fields:
                self.fields[(cls, field)] = type_str
                self.field_classes.setdefault(field, set()).add(cls)
            for cls, simple, kind, payload in facts.decl_annotations:
                decl_annotations.setdefault((cls, simple), []).append(
                    (kind, payload))
            for fn in facts.functions:
                key = fn.key()
                if key in seen:
                    continue
                seen.add(key)
                self.functions[key] = fn
                self.by_simple.setdefault(fn.simple, []).append(key)
                self.by_qual.setdefault(fn.qual, []).append(key)

        # Header prototypes annotate; definitions inherit.
        marker_kinds = {"hot": "sj::hot", "signal_safe": "sj::signal_safe",
                        "untrusted": "sj::untrusted",
                        "validates": "sj::validates",
                        "blocking": "sj::blocking"}
        for fn in self.functions.values():
            for kind, payload in decl_annotations.get(
                    (fn.class_ctx, fn.simple), []):
                if kind in marker_kinds:
                    if marker_kinds[kind] not in fn.annotations:
                        fn.annotations.append(marker_kinds[kind])
                elif kind == "requires" and payload not in fn.requires:
                    fn.requires.append(payload)
                elif kind == "excludes" and payload not in fn.excludes:
                    fn.excludes.append(payload)

    def resolve_call(self, caller, name):
        """Maps a call-site name to candidate function keys. Prefers an
        exact qualified match, then same-class, then same-file, then any
        same-simple-name definition (conservative: all of them)."""
        name = name.strip()
        if name in self.by_qual:
            return self.by_qual[name]
        # Suffix match on qualified names (call "exec::Foo" vs qual
        # "spatialjoin::exec::Foo").
        if "::" in name:
            matches = [k for q, keys in self.by_qual.items()
                       if q.endswith("::" + name) for k in keys]
            if matches:
                return matches
        simple = name.rsplit("::", 1)[-1]
        keys = self.by_simple.get(simple, [])
        if not keys:
            return []
        same_class = [k for k in keys
                      if self.functions[k].class_ctx == caller.class_ctx
                      and caller.class_ctx]
        if same_class:
            return same_class
        same_file = [k for k in keys
                     if self.functions[k].file == caller.file]
        if same_file:
            return same_file
        return keys

    def canon_mutex(self, fn, expr):
        """Canonical identity for a mutex expression at a lock site.
        `mu_` inside a HeapFile method becomes HeapFile::mu_; a global
        becomes ::name; anything unresolvable gets a per-function
        placeholder so it can never fabricate a cross-function cycle."""
        expr = expr.strip().replace("this->", "")
        expr = re.sub(r"\s+", "", expr)
        if not expr:
            return "?%s:empty" % fn.qual
        if "::" in expr and "." not in expr and "->" not in expr:
            return expr  # already qualified
        if re.fullmatch(r"[A-Za-z_]\w*", expr):
            if fn.class_ctx and (fn.class_ctx, expr) in self.fields:
                return "%s::%s" % (fn.class_ctx, expr)
            if expr in self.global_mutexes:
                return "::" + expr
            classes = self.field_classes.get(expr)
            if classes and len(classes) == 1:
                return "%s::%s" % (next(iter(classes)), expr)
            return "?%s:%s" % (fn.qual, expr)
        m = re.fullmatch(r"([A-Za-z_]\w*)(?:\.|->)([A-Za-z_]\w*)", expr)
        if m:
            recv, field = m.group(1), m.group(2)
            recv_type = None
            if fn.class_ctx and (fn.class_ctx, recv) in self.fields:
                recv_type = self.fields[(fn.class_ctx, recv)]
            if recv_type is not None:
                tm = re.search(r"([A-Za-z_]\w*)\s*[*&>]*$",
                               recv_type.replace(">", " >"))
                if tm and (tm.group(1), field) in self.fields:
                    return "%s::%s" % (tm.group(1), field)
            classes = self.field_classes.get(field)
            if classes and len(classes) == 1:
                return "%s::%s" % (next(iter(classes)), field)
        return "?%s:%s" % (fn.qual, expr)


# --------------------------------------------------------------------------
# Checkers
# --------------------------------------------------------------------------

def _is_virtual_call(program, name):
    simple = name.rsplit("::", 1)[-1]
    return simple in program.virtual_names and "::" not in name


def _reach_closure(program, roots):
    """BFS over direct (non-virtual) calls. Returns (order, parents)
    where parents maps key -> (parent key, call line) for chain
    reconstruction."""
    parents = {}
    order = []
    queue = list(roots)
    visited = set(roots)
    while queue:
        key = queue.pop(0)
        order.append(key)
        fn = program.functions[key]
        for kind, payload, line, _depth in fn.events:
            if kind != "call":
                continue
            if _is_virtual_call(program, payload):
                continue
            for callee in program.resolve_call(fn, payload):
                if callee not in visited:
                    visited.add(callee)
                    parents[callee] = (key, line)
                    queue.append(callee)
    return order, parents


def _chain(program, parents, key, roots):
    names = [program.functions[key].simple]
    while key in parents:
        key = parents[key][0]
        names.append(program.functions[key].simple)
    names.reverse()
    return " -> ".join(names)


def check_signal_safety(program):
    findings = []
    root_keys = set()
    handler_keys = set()
    for root_name in program.signal_roots:
        for key in program.by_simple.get(root_name, []):
            root_keys.add(key)
            handler_keys.add(key)
    for key, fn in program.functions.items():
        if "sj::signal_safe" in fn.annotations:
            root_keys.add(key)

    if not handler_keys:
        findings.append(Finding(
            "signal-no-root", "<program>", 0,
            "no sa_handler/sa_sigaction installation site found; the "
            "signal-safety checker has no handler root to cover",
            "<program>", "no-handler"))

    order, parents = _reach_closure(program, root_keys)
    for key in order:
        fn = program.functions[key]
        chain = _chain(program, parents, key, root_keys)
        for kind, payload, line, _depth in fn.events:
            if kind == "alloc":
                findings.append(Finding(
                    "signal-alloc", fn.file, line,
                    "allocation (%s) in signal-reachable %s [%s]"
                    % (payload, fn.qual, chain), fn.qual, payload))
            elif kind == "lock":
                findings.append(Finding(
                    "signal-lock", fn.file, line,
                    "mutex acquisition (%s) in signal-reachable %s [%s]"
                    % (payload, fn.qual, chain), fn.qual, payload))
            elif kind == "throw":
                findings.append(Finding(
                    "signal-throw", fn.file, line,
                    "throw in signal-reachable %s [%s]" % (fn.qual, chain),
                    fn.qual, "throw"))
            elif kind in ("call", "vcall"):
                if kind == "vcall" or _is_virtual_call(program, payload):
                    findings.append(Finding(
                        "signal-virtual-call", fn.file, line,
                        "virtual dispatch (%s) in signal-reachable %s [%s]"
                        % (payload, fn.qual, chain), fn.qual, payload))
                    continue
                if program.resolve_call(fn, payload):
                    continue  # traversed by the closure
                simple = payload.rsplit("::", 1)[-1]
                if simple in SIGNAL_BANNED or payload in SIGNAL_BANNED:
                    findings.append(Finding(
                        "signal-unsafe-call", fn.file, line,
                        "banned call %s in signal-reachable %s [%s]"
                        % (payload, fn.qual, chain), fn.qual, payload))
                elif simple in ALLOCATING_CALLS:
                    findings.append(Finding(
                        "signal-alloc", fn.file, line,
                        "allocating call %s in signal-reachable %s [%s]"
                        % (payload, fn.qual, chain), fn.qual, payload))
                elif simple not in SIGNAL_SAFE_LEAVES:
                    findings.append(Finding(
                        "signal-unsafe-call", fn.file, line,
                        "call %s is outside the async-signal-safe "
                        "allowlist in %s [%s]" % (payload, fn.qual, chain),
                        fn.qual, payload))
    return findings


def _transitive_acquires(program):
    """Fixpoint: for every function, the set of canonical mutexes it may
    acquire directly or through any resolvable callee."""
    direct = {}
    calls = {}
    for key, fn in program.functions.items():
        acq = set()
        for kind, payload, _line, _depth in fn.events:
            if kind == "lock":
                acq.add(program.canon_mutex(fn, payload))
        direct[key] = acq
        callees = set()
        for kind, payload, _line, _depth in fn.events:
            if kind == "call" and not _is_virtual_call(program, payload):
                callees.update(program.resolve_call(fn, payload))
        calls[key] = callees

    acquires = {k: set(v) for k, v in direct.items()}
    changed = True
    while changed:
        changed = False
        for key in program.functions:
            before = len(acquires[key])
            for callee in calls[key]:
                acquires[key] |= acquires.get(callee, set())
            if len(acquires[key]) != before:
                changed = True
    return acquires


def check_lock_order(program, lock_order):
    findings = []
    acquires = _transitive_acquires(program)

    # Edges: held -> acquired, with one witness site each.
    edges = {}  # (a, b) -> (file, line, via)

    def add_edge(a, b, file, line, via):
        if a == b:
            return
        edges.setdefault((a, b), (file, line, via))

    for key, fn in program.functions.items():
        held = []  # [(mutex, depth)]
        for mu_expr in fn.requires:
            held.append((program.canon_mutex(fn, mu_expr), -1))
        for kind, payload, line, depth in fn.events:
            while held and held[-1][1] >= 0 and held[-1][1] > depth:
                held.pop()
            if kind == "lock":
                mu = program.canon_mutex(fn, payload)
                for h, _d in held:
                    add_edge(h, mu, fn.file, line, fn.qual)
                held.append((mu, depth))
            elif kind == "call" and not _is_virtual_call(program, payload):
                callees = program.resolve_call(fn, payload)
                for callee in callees:
                    cfn = program.functions[callee]
                    for mu_expr in cfn.excludes:
                        mu = program.canon_mutex(cfn, mu_expr)
                        if any(h == mu for h, _d in held):
                            findings.append(Finding(
                                "lock-excludes-violation", fn.file, line,
                                "%s calls %s (annotated SJ_EXCLUDES(%s)) "
                                "while holding %s"
                                % (fn.qual, cfn.qual, mu_expr, mu),
                                fn.qual, "%s-excludes-%s"
                                % (cfn.simple, mu)))
                    for mu in acquires.get(callee, set()):
                        for h, _d in held:
                            add_edge(h, mu, fn.file, line,
                                     "%s -> %s" % (fn.qual, cfn.qual))

    # Documented-order violations (both endpoints named in the order).
    order_index = {name: i for i, name in enumerate(lock_order)}
    for (a, b), (file, line, via) in sorted(edges.items()):
        if a.startswith("?") or b.startswith("?"):
            continue  # unresolved receivers never report
        ia, ib = order_index.get(a), order_index.get(b)
        if ia is not None and ib is not None and ia > ib:
            findings.append(Finding(
                "lock-order-violation", file, line,
                "acquires %s while holding %s, against the documented "
                "order %s (via %s)" % (b, a, " -> ".join(lock_order), via),
                via.split(" -> ")[0], "%s->%s" % (a, b)))

    # Cycles in the full graph (unresolved placeholders excluded: they
    # are per-function-unique and cannot close a real cycle anyway).
    graph = {}
    for (a, b) in edges:
        if a.startswith("?") or b.startswith("?"):
            continue
        graph.setdefault(a, set()).add(b)

    state = {}
    stack = []

    def dfs(node):
        state[node] = 1
        stack.append(node)
        for succ in sorted(graph.get(node, ())):
            if state.get(succ, 0) == 1:
                cycle = stack[stack.index(succ):] + [succ]
                file, line, via = edges[(node, succ)]
                findings.append(Finding(
                    "lock-cycle", file, line,
                    "acquired-while-held cycle: %s (closing edge via %s)"
                    % (" -> ".join(cycle), via),
                    via.split(" -> ")[0], "->".join(cycle)))
            elif state.get(succ, 0) == 0:
                dfs(succ)
        stack.pop()
        state[node] = 2

    for node in sorted(graph):
        if state.get(node, 0) == 0:
            dfs(node)

    return findings


def check_hot_path(program):
    findings = []
    roots = {key for key, fn in program.functions.items()
             if "sj::hot" in fn.annotations}
    order, parents = _reach_closure(program, roots)
    for key in order:
        fn = program.functions[key]
        chain = _chain(program, parents, key, roots)
        for kind, payload, line, _depth in fn.events:
            if kind == "alloc":
                findings.append(Finding(
                    "hot-alloc", fn.file, line,
                    "allocation (%s) on hot path %s [%s]"
                    % (payload, fn.qual, chain), fn.qual, payload))
            elif kind == "lock":
                findings.append(Finding(
                    "hot-lock", fn.file, line,
                    "mutex acquisition (%s) on hot path %s [%s]"
                    % (payload, fn.qual, chain), fn.qual, payload))
            elif kind == "throw":
                findings.append(Finding(
                    "hot-throw", fn.file, line,
                    "throw on hot path %s [%s]" % (fn.qual, chain),
                    fn.qual, "throw"))
            elif kind in ("call", "vcall"):
                if kind == "vcall" or _is_virtual_call(program, payload):
                    findings.append(Finding(
                        "hot-virtual-call", fn.file, line,
                        "virtual dispatch (%s) on hot path %s [%s]"
                        % (payload, fn.qual, chain), fn.qual,
                        "virtual:%s" % payload.rsplit("::", 1)[-1]))
                    continue
                if program.resolve_call(fn, payload):
                    continue  # traversed
                simple = payload.rsplit("::", 1)[-1]
                if simple in ALLOCATING_CALLS:
                    findings.append(Finding(
                        "hot-alloc", fn.file, line,
                        "allocating call %s on hot path %s [%s]"
                        % (payload, fn.qual, chain), fn.qual, payload))
    return findings


# --------------------------------------------------------------------------
# Dataflow checkers (run over the textual dataflow program under both
# frontends)
# --------------------------------------------------------------------------

def _taint_eval(program, summaries, key, report):
    """Evaluates one function against the current summaries. Taint tags
    are "T" (wire-derived) or an int parameter index. Returns
    (summary, findings): summary = {ret: tags, sinks: {param: (desc,
    line)}, out: {param: tags}}."""
    fn = program.functions[key]
    out_findings = []
    summary = {"ret": set(), "sinks": {}, "out": {}}
    tags = {}
    for i, p in enumerate(fn.params):
        if p:
            tags[p] = {i}

    def vtags(vs):
        t = set()
        for v in vs:
            t |= tags.get(v, set())
        return t

    def hit(t, desc, line, via):
        for tag in sorted(t, key=str):
            if tag == "T":
                if report:
                    out_findings.append(Finding(
                        "wire-taint", fn.file, line,
                        "untrusted wire value reaches %s in %s%s without "
                        "passing an SJ_VALIDATES sanitizer"
                        % (desc, fn.qual, via), fn.qual, desc))
            else:
                summary["sinks"].setdefault(tag, (desc, line))

    for st in fn.dflow:
        line = st["line"]
        pool = set()  # taint returned by calls inside this statement
        if st["asgn"]:
            lhs, rhs, compound = st["asgn"]
            nt = vtags(rhs)
            tags[lhs] = (tags.get(lhs, set()) | nt) if compound else nt
        for name, args in st["calls"]:
            simple = name.rsplit("::", 1)[-1]
            argtags = [vtags(a) | pool for a in args]
            cands = program.resolve_call(fn, name)
            is_src = any("sj::untrusted" in program.functions[c].annotations
                         for c in cands)
            is_san = any("sj::validates" in program.functions[c].annotations
                         for c in cands)
            rt = set()
            if is_src:
                # Source: the return value and every by-reference
                # argument now carry wire taint.
                rt.add("T")
                for a in args:
                    for v in a:
                        tags[v] = tags.get(v, set()) | {"T"}
            elif is_san:
                # Sanitizer: arguments, out-params, and the return value
                # are validated from here on. The assignment target was
                # already tagged from the raw rhs vars above, so a
                # statement of the form `x = Validate(y)` must bless the
                # lhs as well.
                for a in args:
                    for v in a:
                        tags[v] = set()
                pool.clear()
                if st["asgn"]:
                    tags[st["asgn"][0]] = set()
            elif cands:
                for c in cands:
                    cs = summaries[c]
                    for tag in cs["ret"]:
                        if tag == "T":
                            rt.add("T")
                        elif isinstance(tag, int) and tag < len(argtags):
                            rt |= argtags[tag]
                    for pi, (desc, _l) in sorted(cs["sinks"].items()):
                        if pi < len(argtags):
                            hit(argtags[pi], desc, line,
                                " (via %s)" % program.functions[c].simple)
                    for pi, otags in sorted(cs["out"].items()):
                        if pi < len(argtags):
                            resolved = set()
                            for tag in otags:
                                if tag == "T":
                                    resolved.add("T")
                                elif isinstance(tag, int) and \
                                        tag < len(argtags):
                                    resolved |= argtags[tag]
                            for v in args[pi]:
                                tags[v] = tags.get(v, set()) | resolved
            if simple in TAINT_SINK_CALLS and not is_san:
                idx = TAINT_SINK_CALLS[simple]
                desc = "%s argument" % simple
                if idx is None:
                    checked = argtags
                elif idx == "tail":
                    checked = argtags[1:]
                elif idx < len(argtags):
                    checked = [argtags[idx]]
                else:
                    checked = []
                for t in checked:
                    hit(t, desc, line, "")
            pool |= rt
            if st["asgn"] and rt:
                lhs = st["asgn"][0]
                tags[lhs] = tags.get(lhs, set()) | rt
        for kind, vs in st["sinks"]:
            hit(vtags(vs) | pool, kind, line, "")
        if st["ret"] is not None:
            summary["ret"] |= vtags(st["ret"]) | pool

    # Out-params: taint a parameter accumulated beyond its own identity
    # tag is visible to the caller through that argument.
    for i, p in enumerate(fn.params):
        if not p:
            continue
        extra = tags.get(p, set()) - {i}
        if extra:
            summary["out"][i] = extra
    return summary, out_findings


def check_wire_taint(program):
    findings = []
    sources = sorted(key for key, fn in program.functions.items()
                     if "sj::untrusted" in fn.annotations)
    if not sources:
        findings.append(Finding(
            "wire-taint-no-source", "<program>", 0,
            "no SJ_UNTRUSTED function found; the wire-taint checker has "
            "no taint source to track", "<program>", "no-source"))
        return findings

    keys = sorted(program.functions)
    summaries = {k: {"ret": set(), "sinks": {}, "out": {}} for k in keys}
    for _round in range(50):
        changed = False
        for k in keys:
            new, _ = _taint_eval(program, summaries, k, report=False)
            old = summaries[k]
            if (new["ret"] != old["ret"] or new["out"] != old["out"]
                    or set(new["sinks"]) != set(old["sinks"])):
                summaries[k] = new
                changed = True
        if not changed:
            break
    for k in keys:
        _, fs = _taint_eval(program, summaries, k, report=True)
        findings.extend(fs)
    return findings


def _transitive_blockers(program):
    """Fixpoint: for every function, the set of blocking leaf names
    (or SJ_BLOCKING function names) reachable through direct calls."""
    blocks = {}
    calls = {}
    for k, fn in sorted(program.functions.items()):
        b = set()
        if "sj::blocking" in fn.annotations:
            b.add(fn.simple)
        resolved_calls = []
        for kind, payload, _line, _depth in fn.events:
            if kind != "call" or _is_virtual_call(program, payload):
                continue
            cands = program.resolve_call(fn, payload)
            simple = payload.rsplit("::", 1)[-1]
            if not cands and simple in BLOCKING_LEAVES:
                b.add(simple)
            resolved_calls.append(cands)
        blocks[k] = b
        calls[k] = resolved_calls
    changed = True
    while changed:
        changed = False
        for k in blocks:
            for cands in calls[k]:
                for c in cands:
                    extra = blocks.get(c, set()) - blocks[k]
                    if extra:
                        blocks[k] |= extra
                        changed = True
    return blocks


def check_blocking_under_lock(program):
    findings = []
    blocks = _transitive_blockers(program)
    for k in sorted(program.functions):
        fn = program.functions[k]
        # Wait-call arguments, for the CondVar release exemption.
        wait_args = {}
        for st in fn.dflow:
            for name, args in st["calls"]:
                simple = name.rsplit("::", 1)[-1]
                if simple in CONDVAR_WAIT_METHODS and args:
                    wait_args.setdefault((st["line"], simple), args[0])
        held = []  # [(canonical mutex, depth)]
        for mu_expr in fn.requires:
            held.append((program.canon_mutex(fn, mu_expr), -1))
        for kind, payload, line, depth in fn.events:
            while held and held[-1][1] >= 0 and held[-1][1] > depth:
                held.pop()
            if kind == "lock":
                held.append((program.canon_mutex(fn, payload), depth))
                continue
            if kind != "call" or not held:
                continue
            if _is_virtual_call(program, payload):
                continue
            simple = payload.rsplit("::", 1)[-1]
            cands = program.resolve_call(fn, payload)
            witness = set()
            if not cands and simple in BLOCKING_LEAVES:
                witness.add(simple)
            for c in cands:
                witness |= blocks.get(c, set())
            if not witness:
                continue
            # CondVar::Wait* atomically releases the mutex it is handed,
            # so holding exactly that mutex across the wait is the
            # intended protocol, not a finding. The dflow arg records
            # base identifiers (`sync_` for `sync_->mu`), so match both
            # the canonical form and the held expression's base.
            wvars = (wait_args.get((line, simple)) or []) \
                if simple in CONDVAR_WAIT_METHODS else []
            exempt = {program.canon_mutex(fn, v) for v in wvars}
            remaining = []
            for h, _d in held:
                if h in exempt:
                    continue
                tail = h.rsplit(":", 1)[-1]
                if any(tail == v or tail.startswith(v + ".") or
                       tail.startswith(v + "->") for v in wvars):
                    continue
                remaining.append(h)
            if remaining:
                findings.append(Finding(
                    "lock-blocking-call", fn.file, line,
                    "%s calls %s (may block: %s) while holding %s"
                    % (fn.qual, payload, ", ".join(sorted(witness)),
                       ", ".join(remaining)),
                    fn.qual, "%s:%s" % (simple, remaining[0])))
    return findings


def _dispatch_anchors(program, dispatch):
    return {k for k, fn in program.functions.items()
            if fn.qual == dispatch or fn.qual.endswith("::" + dispatch)}


def _cancellation_closure(program, dispatch):
    """(roots, order, parents): roots are the dispatch definition plus
    everything that can reach it (the lambda bodies handed to Submit are
    attributed to their enclosing functions, so the work they dispatch
    is reachable from those ancestors); order is the forward closure."""
    anchors = _dispatch_anchors(program, dispatch)
    rev = {}
    for k, fn in program.functions.items():
        for kind, payload, _line, _depth in fn.events:
            if kind == "call" and not _is_virtual_call(program, payload):
                for c in program.resolve_call(fn, payload):
                    rev.setdefault(c, set()).add(k)
    roots = set(anchors)
    queue = list(anchors)
    while queue:
        k = queue.pop()
        for p in rev.get(k, ()):
            if p not in roots:
                roots.add(p)
                queue.append(p)
    order, parents = _reach_closure(program, roots)
    return roots, order, parents


def check_cancellation(program, dispatch):
    findings = []
    if not _dispatch_anchors(program, dispatch):
        findings.append(Finding(
            "cancel-no-root", "<program>", 0,
            "no %s definition found; the cancellation checker has no "
            "dispatch root to cover" % dispatch, "<program>", "no-dispatch"))
        return findings
    roots, order, parents = _cancellation_closure(program, dispatch)

    # Fixpoint: functions that (transitively) poll CancelToken.
    fwd = {}
    polls = set()
    for k, fn in program.functions.items():
        callees = set()
        for kind, payload, _line, _depth in fn.events:
            if kind == "call" and not _is_virtual_call(program, payload):
                if payload.rsplit("::", 1)[-1] == "ShouldStop":
                    polls.add(k)
                callees.update(program.resolve_call(fn, payload))
        fwd[k] = callees
    changed = True
    while changed:
        changed = False
        for k in fwd:
            if k not in polls and fwd[k] & polls:
                polls.add(k)
                changed = True

    for k in sorted(set(order)):
        fn = program.functions[k]
        if not fn.loops:
            continue
        # Assign each SJ_BOUNDED_WORK marker to its innermost loop: the
        # marker is a claim about one specific loop, not its enclosers.
        marked = [False] * len(fn.loops)
        for ml in fn.bounded_lines:
            best = None
            for i, (start, end, _b, _c) in enumerate(fn.loops):
                if start <= ml <= end and (
                        best is None or
                        end - start < fn.loops[best][1] - fn.loops[best][0]):
                    best = i
            if best is not None:
                marked[best] = True
        chain = _chain(program, parents, k, roots)
        for i, (start, end, bounded, cond) in enumerate(fn.loops):
            if bounded or marked[i]:
                continue
            ok = False
            for kind, payload, line, _depth in fn.events:
                if kind != "call" or not (start <= line <= end):
                    continue
                if payload.rsplit("::", 1)[-1] == "ShouldStop":
                    ok = True
                    break
                if not _is_virtual_call(program, payload) and \
                        polls & set(program.resolve_call(fn, payload)):
                    ok = True
                    break
            if ok:
                continue
            findings.append(Finding(
                "cancel-unpolled-loop", fn.file, start,
                "loop in %s (reachable from %s [%s]) has no CancelToken "
                "poll, SJ_BOUNDED_WORK marker, or constant bound%s"
                % (fn.qual, dispatch, chain,
                   " (cond: %s)" % cond if cond else ""),
                fn.qual, "loop#%d" % (i + 1)))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def scan_files(root, scan_dirs):
    files = []
    for scan_dir in scan_dirs:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    files.append(rel.replace(os.sep, "/"))
    files.sort()
    return files


def _cache_path(cache_dir, rel_path, frontend):
    # The frontend participates in the file name: under libclang the
    # textual companion pass caches its facts alongside the AST facts
    # for the same file.
    digest = hashlib.sha256(
        ("%s\0%s" % (frontend, rel_path)).encode()).hexdigest()[:24]
    return os.path.join(cache_dir, digest + ".json")


def _cache_key(text, frontend, flags):
    h = hashlib.sha256()
    h.update(ANALYZER_VERSION.encode())
    h.update(frontend.encode())
    h.update("\0".join(flags).encode())
    h.update(text.encode("utf-8", errors="replace"))
    return h.hexdigest()


def extract_all(root, files, frontend, compdb, cache_dir):
    """Runs the selected frontend over every file, with a per-file facts
    cache keyed on content + flags + analyzer version."""
    all_facts = []
    for rel in files:
        abs_path = os.path.join(root, rel)
        with open(abs_path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        flags = []
        if frontend == "libclang":
            flags = compdb.get(os.path.realpath(abs_path), [])
        key = _cache_key(text, frontend, flags)
        cache_file = (_cache_path(cache_dir, rel, frontend)
                      if cache_dir else None)
        if cache_file and os.path.exists(cache_file):
            try:
                with open(cache_file, "r", encoding="utf-8") as f:
                    cached = json.load(f)
                if cached.get("key") == key:
                    all_facts.append(FileFacts.from_json(cached["facts"]))
                    continue
            except (ValueError, KeyError):
                pass
        if frontend == "libclang":
            args = flags
            if not args:
                # Headers are not TUs; parse standalone as C++.
                args = ["-x", "c++", "-std=c++17",
                        "-I" + os.path.join(root, "src")]
            try:
                facts = extract_libclang(root, rel, args)
            except Exception as exc:  # noqa: BLE001 - degrade per file
                sys.stderr.write(
                    "sj_analyze: libclang failed on %s (%s); using "
                    "textual frontend for this file\n" % (rel, exc))
                facts = extract_textual(rel, text)
        else:
            facts = extract_textual(rel, text)
        all_facts.append(facts)
        if cache_file:
            os.makedirs(cache_dir, exist_ok=True)
            with open(cache_file, "w", encoding="utf-8") as f:
                json.dump({"key": key, "facts": facts.to_json()}, f)
    return all_facts


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sj_analyze",
        description="Whole-program signal-safety, lock-order, and "
                    "hot-path purity checks.")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--scan-dir", action="append", dest="scan_dirs",
                        help="directory under root to scan "
                             "(default: src; repeatable)")
    parser.add_argument("--frontend", choices=("auto", "libclang", "textual"),
                        default="auto")
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json path (default: "
                             "<root>/build/compile_commands.json)")
    parser.add_argument("--checks", default=",".join(ALL_CHECKS),
                        help="comma-separated subset of: %s"
                             % ", ".join(ALL_CHECKS))
    parser.add_argument("--order", default=",".join(DEFAULT_LOCK_ORDER),
                        help="documented lock hierarchy, outermost first")
    parser.add_argument("--dispatch", default=DEFAULT_DISPATCH,
                        help="qualified suffix of the query-dispatch "
                             "function rooting the cancellation checker "
                             "(default: %(default)s)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON (default: "
                             "<root>/%s)" % DEFAULT_BASELINE)
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from current findings")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON (the schema shared "
                             "with sj_lint --json)")
    parser.add_argument("--cache-dir", default=None,
                        help="facts cache directory (default: "
                             "<root>/build/sj_analyze_cache)")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--dump-reachable",
                        choices=("signal-safety", "hot-path", "wire-taint",
                                 "blocking-under-lock", "cancellation"),
                        help="print the checker's roots and reachable "
                             "set as JSON and exit")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULE_DESCRIPTIONS):
            print("%-24s %s" % (rule, RULE_DESCRIPTIONS[rule]))
        return 0

    root = os.path.abspath(args.root)
    scan_dirs = args.scan_dirs or list(DEFAULT_SCAN_DIRS)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for check in checks:
        if check not in ALL_CHECKS:
            parser.error("unknown check %r" % check)
    lock_order = [m.strip() for m in args.order.split(",") if m.strip()]

    frontend = args.frontend
    if frontend == "auto":
        frontend = "libclang" if libclang_available() else "textual"
    elif frontend == "libclang" and not libclang_available():
        sys.stderr.write("sj_analyze: --frontend libclang requested but "
                         "clang.cindex is unavailable\n")
        return 2

    compdb = {}
    if frontend == "libclang":
        compdb_path = args.compdb or os.path.join(
            root, "build", "compile_commands.json")
        compdb = load_compile_commands(compdb_path)

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.path.join(
            root, "build", "sj_analyze_cache")

    files = scan_files(root, scan_dirs)
    if not files:
        sys.stderr.write("sj_analyze: nothing to scan under %s\n"
                         % ", ".join(scan_dirs))
        return 2

    all_facts = extract_all(root, files, frontend, compdb, cache_dir)
    program = Program(all_facts)

    # The dataflow checkers always run over the shared textual
    # statement-level facts so both frontends agree bit-for-bit; under
    # the textual frontend that program *is* the main program.
    if frontend == "libclang":
        dprogram = Program(extract_all(root, files, "textual", {},
                                       cache_dir))
    else:
        dprogram = program

    if args.dump_reachable:
        if args.dump_reachable == "signal-safety":
            roots = set()
            for name in program.signal_roots:
                roots.update(program.by_simple.get(name, []))
            for key, fn in program.functions.items():
                if "sj::signal_safe" in fn.annotations:
                    roots.add(key)
        elif args.dump_reachable == "hot-path":
            roots = {key for key, fn in program.functions.items()
                     if "sj::hot" in fn.annotations}
        elif args.dump_reachable == "wire-taint":
            print(json.dumps({
                "frontend": frontend,
                "sources": sorted(fn.qual for fn in
                                  dprogram.functions.values()
                                  if "sj::untrusted" in fn.annotations),
                "sanitizers": sorted(fn.qual for fn in
                                     dprogram.functions.values()
                                     if "sj::validates" in fn.annotations),
            }, indent=2))
            return 0
        elif args.dump_reachable == "blocking-under-lock":
            blocks = _transitive_blockers(dprogram)
            print(json.dumps({
                "frontend": frontend,
                "blocking": {dprogram.functions[k].qual: sorted(v)
                             for k, v in sorted(blocks.items()) if v},
            }, indent=2))
            return 0
        elif args.dump_reachable == "cancellation":
            anchors = _dispatch_anchors(dprogram, args.dispatch)
            if not anchors:
                print(json.dumps({"frontend": frontend, "dispatch": [],
                                  "covered": [], "loops": {}}, indent=2))
                return 0
            _roots, order, _parents = _cancellation_closure(
                dprogram, args.dispatch)
            print(json.dumps({
                "frontend": frontend,
                "dispatch": sorted(dprogram.functions[k].qual
                                   for k in anchors),
                "covered": sorted(dprogram.functions[k].qual
                                  for k in set(order)),
                "loops": {dprogram.functions[k].qual:
                          len(dprogram.functions[k].loops)
                          for k in sorted(set(order))
                          if dprogram.functions[k].loops},
            }, indent=2))
            return 0
        order, _parents = _reach_closure(program, roots)
        print(json.dumps({
            "frontend": frontend,
            "roots": sorted(program.functions[k].qual for k in roots),
            "handler_roots": sorted(program.signal_roots),
            "reachable": sorted(program.functions[k].qual for k in order),
        }, indent=2))
        return 0

    findings = []
    if "signal-safety" in checks:
        findings.extend(check_signal_safety(program))
    if "lock-order" in checks:
        findings.extend(check_lock_order(program, lock_order))
    if "hot-path" in checks:
        findings.extend(check_hot_path(program))
    if "wire-taint" in checks:
        findings.extend(check_wire_taint(dprogram))
    if "blocking-under-lock" in checks:
        findings.extend(check_blocking_under_lock(dprogram))
    if "cancellation" in checks:
        findings.extend(check_cancellation(dprogram, args.dispatch))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.detail))

    # Collapse duplicates (the same site reached via several roots).
    unique = []
    seen = set()
    for finding in findings:
        k = (finding.rule, finding.path, finding.line, finding.symbol,
             finding.detail)
        if k not in seen:
            seen.add(k)
            unique.append(finding)
    findings = unique

    if args.write_baseline:
        baseline_path = args.baseline or os.path.join(root, DEFAULT_BASELINE)
        write_baseline(baseline_path, findings)
        print("sj_analyze: wrote %d baseline entries to %s"
              % (len({f.key() for f in findings}), baseline_path))
        return 0

    baseline = {}
    if not args.no_baseline:
        baseline_path = args.baseline or os.path.join(root, DEFAULT_BASELINE)
        baseline = load_baseline(baseline_path)
    for finding in findings:
        if finding.key() in baseline:
            finding.suppressed = True

    # Stale-baseline detection: an entry for a rule whose checker ran,
    # matching no current finding, is dead weight that would silently
    # suppress a future regression at the same key — fail until the
    # entry is deleted. Entries for checkers that did not run this
    # invocation are left alone.
    if baseline:
        ran_rules = set()
        for check in checks:
            ran_rules.update(CHECK_RULES[check])
        found_keys = {f.key() for f in findings}
        rel_baseline = os.path.relpath(baseline_path, root) \
            if os.path.isabs(baseline_path) else baseline_path
        for bkey in sorted(baseline):
            if bkey[0] in ran_rules and bkey not in found_keys:
                findings.append(Finding(
                    "baseline-stale", rel_baseline.replace(os.sep, "/"), 0,
                    "baseline entry (rule=%s, symbol=%s, detail=%s) "
                    "matches no current finding — the exception was fixed "
                    "or the symbol renamed; delete the entry"
                    % bkey, bkey[1], "%s:%s" % (bkey[0], bkey[2])))

    unsuppressed = [f for f in findings if not f.suppressed]

    if args.json:
        print(json.dumps([f.to_json() for f in findings], indent=2))
    else:
        for finding in unsuppressed:
            print("%s:%d: [%s] %s"
                  % (finding.path, finding.line, finding.rule,
                     finding.message))
        suppressed_count = len(findings) - len(unsuppressed)
        print("sj_analyze (%s frontend): %d finding(s), %d suppressed "
              "by baseline, %d file(s) scanned"
              % (frontend, len(unsuppressed), suppressed_count, len(files)))

    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
