#!/usr/bin/env python3
"""Project-specific lint gates for cluert (ci.sh gate 8).

Five rules, each encoding a concurrency/robustness contract that generic
tooling cannot check because it is a *project* convention (DESIGN.md §10):

  implicit-seq-cst   Every atomic operation must name its memory order.
                     An argument-less .load()/.store(v)/.fetch_add(v)/
                     .exchange(v)/.compare_exchange_*(...) silently means
                     seq_cst; the project requires the order to be written
                     out (and justified in the DESIGN.md order tables) so a
                     reviewer can tell a deliberate fence from an accident.

  live-access        The raw epoch publication surface (loadLive /
                     storeLive / exchangeLive) may only be touched by the
                     epoch core itself, VersionedTables, and the model-
                     checking harnesses. Everyone else goes through
                     PinnedResolver / ReadGuard / bindVersion, which keep
                     the grace-period discipline for them.

  raw-assert         assert() compiles out under NDEBUG, so release builds
                     silently drop the check. Use CLUERT_CHECK (always on,
                     prints and aborts) from common/check.h.

  raw-new-delete     Owning allocation lives behind containers, smart
                     pointers or the allocators in src/mem/. A naked
                     new/delete elsewhere is either a leak risk or an
                     ownership design smell.

  raw-mmap           mmap/munmap/madvise/mremap only under src/mem/. Page
                     mappings bypass operator new, so sanitizer redzones
                     and the steady-state allocation counter cannot see
                     them; the one mapping allocator (mem/huge_pages.h)
                     falls back to operator new under the sanitizers.

Suppression: append `// cluert-lint: allow(<rule>)` to the offending line.
Exit status: 0 clean, 1 findings, 2 usage error. `--self-test` runs the
rules against embedded positive/negative snippets and exits accordingly.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

RULES = (
    "implicit-seq-cst",
    "live-access",
    "raw-assert",
    "raw-new-delete",
    "raw-mmap",
)

# Files allowed to touch the raw epoch live-pointer surface.
LIVE_ACCESS_ALLOWED = (
    "src/rib/epoch.h",
    "src/rib/versioned_tables.h",
    "src/mc/harnesses.h",
)

# Allocation code is allowed to allocate, and to map pages.
NEW_DELETE_ALLOWED_DIRS = ("src/mem/",)
MMAP_ALLOWED_DIRS = ("src/mem/",)

ATOMIC_METHODS = (
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "compare_exchange_strong",
    "compare_exchange_weak",
)

SUPPRESS_RE = re.compile(r"//\s*cluert-lint:\s*allow\(([a-z0-9_,\- ]+)\)")


class Finding:
    def __init__(self, path: str, line: int, rule: str, msg: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure.

    Keeps `// cluert-lint:` suppression comments intact so per-line
    suppression still works after stripping.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            comment = text[i:j]
            if SUPPRESS_RE.search(comment):
                out.append(comment)
            else:
                out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def suppressed(line: str, rule: str) -> bool:
    m = SUPPRESS_RE.search(line)
    if not m:
        return False
    allowed = {r.strip() for r in m.group(1).split(",")}
    return rule in allowed


def call_argument_span(text: str, open_paren: int) -> str:
    """Return the argument text of the call whose '(' is at open_paren."""
    depth = 0
    for j in range(open_paren, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : j]
    return text[open_paren + 1 :]


ATOMIC_CALL_RE = re.compile(
    r"[.>]\s*(" + "|".join(ATOMIC_METHODS) + r")\s*\("
)

LIVE_CALL_RE = re.compile(r"\b(loadLive|storeLive|exchangeLive)\s*\(")

ASSERT_RE = re.compile(r"(?<![a-zA-Z0-9_])assert\s*\(")

NEW_RE = re.compile(r"(?<![a-zA-Z0-9_:.])new\b(?!\s*\()")
DELETE_RE = re.compile(r"(?<![a-zA-Z0-9_:.])delete(\s*\[\s*\])?\b")

# The page-mapping calls, free or `::`-qualified; member calls (`x.mmap(`,
# `p->mmap(`) are someone else's API.
MMAP_RE = re.compile(r"(?<![a-zA-Z0-9_.>])(mmap|mmap64|munmap|madvise|mremap)\s*\(")


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def line_text(lines: list, lineno: int) -> str:
    return lines[lineno - 1] if 0 < lineno <= len(lines) else ""


def check_file(relpath: str, raw: str) -> list:
    findings = []
    text = strip_comments_and_strings(raw)
    lines = text.split("\n")

    # implicit-seq-cst ------------------------------------------------------
    for m in ATOMIC_CALL_RE.finditer(text):
        method = m.group(1)
        args = call_argument_span(text, m.end() - 1)
        if "memory_order" in args:
            continue
        lineno = line_of(text, m.start())
        ltxt = line_text(lines, lineno)
        if suppressed(ltxt, "implicit-seq-cst"):
            continue
        findings.append(
            Finding(
                relpath,
                lineno,
                "implicit-seq-cst",
                f".{method}() without an explicit std::memory_order "
                "(implicit seq_cst; name the order and justify it in "
                "DESIGN.md §10)",
            )
        )

    # live-access -----------------------------------------------------------
    if not any(relpath.endswith(a) or relpath == a for a in LIVE_ACCESS_ALLOWED):
        for m in LIVE_CALL_RE.finditer(text):
            lineno = line_of(text, m.start())
            ltxt = line_text(lines, lineno)
            if suppressed(ltxt, "live-access"):
                continue
            findings.append(
                Finding(
                    relpath,
                    lineno,
                    "live-access",
                    f"{m.group(1)}() outside the epoch core — go through "
                    "PinnedResolver / ReadGuard / bindVersion so the "
                    "grace-period discipline holds",
                )
            )

    # raw-assert ------------------------------------------------------------
    for m in ASSERT_RE.finditer(text):
        before = text[max(0, m.start() - 7) : m.start()]
        if before.endswith("static_"):
            continue
        lineno = line_of(text, m.start())
        ltxt = line_text(lines, lineno)
        if suppressed(ltxt, "raw-assert"):
            continue
        findings.append(
            Finding(
                relpath,
                lineno,
                "raw-assert",
                "assert() compiles out under NDEBUG — use CLUERT_CHECK "
                "(common/check.h)",
            )
        )

    # raw-new-delete --------------------------------------------------------
    if not any(d in relpath for d in NEW_DELETE_ALLOWED_DIRS):
        for regex, what in ((NEW_RE, "new"), (DELETE_RE, "delete")):
            for m in regex.finditer(text):
                lineno = line_of(text, m.start())
                ltxt = line_text(lines, lineno)
                # `= delete` / `= default`-style declarations are fine.
                if what == "delete" and re.search(
                    r"=\s*delete\b", ltxt
                ):
                    continue
                if suppressed(ltxt, "raw-new-delete"):
                    continue
                findings.append(
                    Finding(
                        relpath,
                        lineno,
                        "raw-new-delete",
                        f"raw `{what}` outside src/mem/ — use containers, "
                        "unique_ptr, or the src/mem/ allocators",
                    )
                )

    # raw-mmap --------------------------------------------------------------
    if not any(d in relpath for d in MMAP_ALLOWED_DIRS):
        for m in MMAP_RE.finditer(text):
            lineno = line_of(text, m.start())
            ltxt = line_text(lines, lineno)
            if suppressed(ltxt, "raw-mmap"):
                continue
            findings.append(
                Finding(
                    relpath,
                    lineno,
                    "raw-mmap",
                    f"{m.group(1)}() outside src/mem/ — allocate through "
                    "mem/huge_pages.h, which keeps sanitizer builds on "
                    "operator new",
                )
            )

    return findings


def lint_paths(roots: list) -> list:
    findings = []
    for root in roots:
        p = pathlib.Path(root)
        files = (
            [p]
            if p.is_file()
            else sorted(
                f
                for f in p.rglob("*")
                if f.suffix in (".h", ".cc", ".cpp", ".hpp")
            )
        )
        for f in files:
            rel = str(f)
            try:
                raw = f.read_text(encoding="utf-8", errors="replace")
            except OSError as e:
                print(f"error: cannot read {rel}: {e}", file=sys.stderr)
                continue
            findings.extend(check_file(rel, raw))
    return findings


# --- self test --------------------------------------------------------------

SELF_TEST_CASES = [
    # (name, snippet, path, expected rule or None)
    (
        "implicit seq_cst load",
        "int f(std::atomic<int>& a) { return a.load(); }",
        "src/x.h",
        "implicit-seq-cst",
    ),
    (
        "implicit seq_cst fetch_add",
        "void f(std::atomic<int>& a) { a.fetch_add(1); }",
        "src/x.h",
        "implicit-seq-cst",
    ),
    (
        "explicit order ok",
        "int f(std::atomic<int>& a) {\n"
        "  return a.load(std::memory_order_acquire);\n}",
        "src/x.h",
        None,
    ),
    (
        "multiline call with order ok",
        "void f(std::atomic<int>& a) {\n"
        "  a.store(1,\n          std::memory_order_release);\n}",
        "src/x.h",
        None,
    ),
    (
        "suppressed atomic",
        "int f(A& a) { return a.load(); }"
        "  // cluert-lint: allow(implicit-seq-cst)",
        "src/x.h",
        None,
    ),
    (
        "atomic call in comment ignored",
        "// counter.load() is wrong here\nint x;",
        "src/x.h",
        None,
    ),
    (
        "live access outside core",
        "void f(E& e) { auto* v = e.loadLive(); (void)v; }",
        "src/lookup/engine.h",
        "live-access",
    ),
    (
        "live access inside core ok",
        "V* loadLive() const { return live_.load(std::memory_order_seq_cst); }",
        "src/rib/epoch.h",
        None,
    ),
    (
        "raw assert",
        "#include <cassert>\nvoid f(int x) { assert(x > 0); }",
        "src/x.cc",
        "raw-assert",
    ),
    (
        "static_assert ok",
        "static_assert(sizeof(int) == 4, \"\");",
        "src/x.h",
        None,
    ),
    (
        "CLUERT_CHECK ok",
        "void f(int x) { CLUERT_CHECK(x > 0, \"x\"); }",
        "src/x.cc",
        None,
    ),
    (
        "raw new",
        "int* f() { return new int(3); }",
        "src/x.cc",
        "raw-new-delete",
    ),
    (
        "raw delete",
        "void f(int* p) { delete p; }",
        "src/x.cc",
        "raw-new-delete",
    ),
    (
        "deleted function ok",
        "struct S { S(const S&) = delete; };",
        "src/x.h",
        None,
    ),
    (
        "new in mem ok",
        "char* f() { return new char[64]; }",
        "src/mem/huge_pages.cc",
        None,
    ),
    (
        "new in string literal ok",
        'const char* s = "brand new delete this";',
        "src/x.h",
        None,
    ),
    (
        "raw mmap",
        "void* f(std::size_t n) {\n"
        "  return mmap(nullptr, n, PROT_READ, MAP_PRIVATE, -1, 0);\n}",
        "src/core/clue_table.h",
        "raw-mmap",
    ),
    (
        "qualified madvise",
        "void f(void* p, std::size_t n) { ::madvise(p, n, MADV_HUGEPAGE); }",
        "src/netio/socket.cc",
        "raw-mmap",
    ),
    (
        "munmap and mremap",
        "void f(void* p) {\n  munmap(p, 4096);\n"
        "  p = mremap(p, 4096, 8192, 0);\n}",
        "src/x.cc",
        "raw-mmap",
    ),
    (
        "mmap in mem ok",
        "void* f() { return mmap(nullptr, 1, 0, 0, -1, 0); }",
        "src/mem/huge_pages.cc",
        None,
    ),
    (
        "suppressed mmap",
        "void* f() { return mmap(nullptr, 1, 0, 0, -1, 0); }"
        "  // cluert-lint: allow(raw-mmap)",
        "src/x.cc",
        None,
    ),
    (
        "member mmap and comment ok",
        "// mmap() the ring here one day\nvoid f(R& r) { r.mmap(4); }",
        "src/x.cc",
        None,
    ),
]


def self_test() -> int:
    failures = 0
    for name, snippet, path, expected in SELF_TEST_CASES:
        found = check_file(path, snippet)
        rules = {f.rule for f in found}
        if expected is None:
            if rules:
                print(f"self-test FAIL [{name}]: expected clean, got {rules}")
                failures += 1
        else:
            if expected not in rules:
                print(
                    f"self-test FAIL [{name}]: expected {expected}, "
                    f"got {rules or 'clean'}"
                )
                failures += 1
            extra = rules - {expected}
            if extra:
                print(f"self-test FAIL [{name}]: unexpected extras {extra}")
                failures += 1
    if failures:
        print(f"self-test: {failures} failure(s)")
        return 1
    print(f"self-test: {len(SELF_TEST_CASES)} cases ok")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files or directories to lint")
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the embedded rule test cases and exit",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.paths:
        ap.print_usage()
        return 2

    findings = lint_paths(args.paths)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_cluert: {len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
