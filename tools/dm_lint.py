#!/usr/bin/env python3
"""DM-specific lint pass, driven by compile_commands.json.

Four checks that encode project invariants no generic tool enforces:

  dropped-status   A call to a Status/Result-returning function used as
                   a bare statement outside test code. [[nodiscard]]
                   catches most of these at compile time; the lint also
                   covers files a given configuration does not compile
                   (platform-gated code, tools) and survives a future
                   accidental removal of the attribute.
  hot-path-alloc   Heap allocation (new / make_unique / make_shared /
                   std::unordered_map / std::unordered_set) in the
                   query hot path: dm_query.cc, buffer_pool.cc,
                   mesh/extract.cc (every query triangulates its cut
                   there), dm/node_cache.cc (every fetched node probes
                   it), and the fetch path of dm_store.cc
                   (FetchNode/FetchNodes).
                   The warm path is required to be allocation-free (see
                   DESIGN.md §9); cold-path sites carry an inline
                   suppression with a justification.
  raw-mutex        std synchronization primitives (std::mutex,
                   std::lock_guard, std::unique_lock, std::scoped_lock,
                   std::condition_variable[_any]) anywhere except
                   src/common/thread_annotations.h. All locking goes
                   through the annotated dm::Mutex vocabulary so Clang
                   -Wthread-safety sees every acquisition.
  pin-balance      Frame pin accounting must stay confined to
                   buffer_pool.{h,cc}: the `.pins` member may not be
                   touched elsewhere, and within buffer_pool.cc every
                   decrement must live in Unpin() so a new early-return
                   path cannot leak a pin.
  raw-thread       Raw thread spawning (std::thread / std::jthread /
                   std::async / pthread_create) in the async I/O layer
                   (src/storage/async*). Service threads there must go
                   through WorkerPool / ServiceThreads from
                   common/parallel.h, which own join-on-destruction and
                   naming; an ad-hoc thread in a completion path is how
                   shutdown races start. (std::mutex everywhere is
                   already covered by raw-mutex.)

Suppressing a finding
---------------------
Append (or put on the preceding line) a justified allow comment:

    // dm-lint: allow(hot-path-alloc) cold path: runs once per open
    node_cache_ = std::make_unique<NodeCache>(bytes, page_first_);

An allow() without a justification is itself reported
(bad-suppression): the comment exists to tell the next reader *why*
the invariant does not apply, not to silence the tool.

Exit status: 0 when clean, 1 when any finding survives, 2 on usage or
environment errors (e.g. no compile_commands.json found).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys
from dataclasses import dataclass

CHECKS = ("dropped-status", "hot-path-alloc", "raw-mutex", "pin-balance",
          "raw-thread")

ALLOW_RE = re.compile(r"//\s*dm-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

# Files whose whole purpose is to violate the invariants.
EXEMPT_PATH_PARTS = ("tests/compile_fail", "tests/lint_fixtures")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    check: str
    message: str

    def render(self, root: str) -> str:
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: [{self.check}] {self.message}"


# --------------------------------------------------------------------------
# Source model: lines with comments and string literals blanked out, plus
# the raw lines (needed to find suppression comments, which live in the
# part the stripper removes).
# --------------------------------------------------------------------------


class SourceFile:
    def __init__(self, path: str, text: str):
        self.path = path
        self.raw_lines = text.splitlines()
        self.code_lines = _strip_comments_and_strings(self.raw_lines)

    def allow_at(self, lineno: int) -> "tuple[str, str] | None":
        """Return (check, justification) for a dm-lint allow comment on
        line `lineno` (1-based) or immediately above its statement.

        When a statement wraps, the finding may anchor to a continuation
        line while the comment sits above the statement's first line; we
        walk upward through continuation and comment-only lines (a few
        at most) without crossing a completed statement."""
        if 1 <= lineno <= len(self.raw_lines):
            m = ALLOW_RE.search(self.raw_lines[lineno - 1])
            if m:
                return m.group(1), m.group(2).strip()
        i = lineno - 1  # line above the finding
        for _ in range(3):
            if i < 1:
                break
            m = ALLOW_RE.search(self.raw_lines[i - 1])
            if m:
                return m.group(1), m.group(2).strip()
            code = self.code_lines[i - 1].strip()
            if code and code.endswith((";", "{", "}")):
                break  # previous statement — out of range
            i -= 1
        return None


def _strip_comments_and_strings(lines: "list[str]") -> "list[str]":
    """Blank out // and /* */ comments and the contents of string/char
    literals so pattern checks never fire on documentation or messages.
    Replaced characters become spaces, preserving column positions."""
    out = []
    in_block = False
    for line in lines:
        buf = []
        i, n = 0, len(line)
        while i < n:
            c = line[i]
            if in_block:
                if c == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif c == "/" and i + 1 < n and line[i + 1] == "/":
                buf.append(" " * (n - i))
                break
            elif c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                buf.append("  ")
                i += 2
            elif c in ('"', "'"):
                quote = c
                buf.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                    elif line[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    else:
                        buf.append(" ")
                        i += 1
            else:
                buf.append(c)
                i += 1
        out.append("".join(buf))
    return out


# --------------------------------------------------------------------------
# File discovery
# --------------------------------------------------------------------------


def find_compile_commands(repo_root: str, build_dir: "str | None") -> str:
    if build_dir:
        cc = os.path.join(build_dir, "compile_commands.json")
        if os.path.isfile(cc):
            return cc
        raise FileNotFoundError(f"no compile_commands.json in {build_dir}")
    candidates = sorted(
        glob.glob(os.path.join(repo_root, "build*", "compile_commands.json"))
    )
    if not candidates:
        raise FileNotFoundError(
            f"no build*/compile_commands.json under {repo_root}; "
            "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON first"
        )
    return candidates[0]


def collect_sources(repo_root: str, compile_commands: str) -> "list[str]":
    """Translation units from compile_commands.json (in-repo only) plus
    all in-repo headers, so header-only violations are caught too."""
    with open(compile_commands, encoding="utf-8") as f:
        entries = json.load(f)
    files = set()
    for entry in entries:
        path = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"])
        )
        if path.startswith(repo_root + os.sep) and os.path.isfile(path):
            files.add(path)
    for sub in ("src", "tools", "tests"):
        for dirpath, _dirnames, filenames in os.walk(
            os.path.join(repo_root, sub)
        ):
            for name in filenames:
                if name.endswith((".h", ".cc")):
                    files.add(os.path.join(dirpath, name))
    return sorted(
        p
        for p in files
        if not any(part in _posix(p) for part in EXEMPT_PATH_PARTS)
    )


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


def _is_test_path(path: str) -> bool:
    return "/tests/" in _posix(path)


# --------------------------------------------------------------------------
# dropped-status
# --------------------------------------------------------------------------

# Declarations / definitions of functions returning Status or Result<...>.
STATUS_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+)*"
    r"(?:Status|Result<[^;{]*>)\s+(?:[A-Za-z_]\w*::)?([A-Za-z_]\w*)\s*\("
)

# Names are matched without type information, so a name declared BOTH
# with a Status/Result return and with some other return type anywhere
# in the tree is ambiguous and skipped (e.g. a name that returns
# Status in one class and void in another).
OTHER_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+)*"
    r"(?:void|bool|int|size_t|uint32_t|uint64_t|int64_t|auto)\s+"
    r"(?:[A-Za-z_]\w*::)?([A-Za-z_]\w*)\s*\("
)

# A bare call statement: optional object expression, then the call, then
# `);` ending the line. Multi-line calls are joined before matching.
BARE_CALL_RE = re.compile(
    r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w*)\s*\(.*\)\s*;\s*$"
)

# Control-flow / macro contexts in which a Status value IS consumed.
CONSUMED_RE = re.compile(
    r"\breturn\b|\bDM_RETURN_NOT_OK\b|\bDM_ASSIGN_OR_RETURN\b|=|"
    r"\bif\b|\bwhile\b|\bfor\b|\bswitch\b|\(void\)|\bEXPECT_|\bASSERT_"
)


def harvest_status_functions(sources: "list[SourceFile]") -> "set[str]":
    status_names = set()
    other_names = set()
    for sf in sources:
        for line in sf.code_lines:
            m = STATUS_DECL_RE.match(line)
            if m:
                status_names.add(m.group(1))
                continue
            m = OTHER_DECL_RE.match(line)
            if m:
                other_names.add(m.group(1))
    return status_names - other_names


def check_dropped_status(
    sf: SourceFile, status_fns: "set[str]"
) -> "list[Finding]":
    if _is_test_path(sf.path) or not sf.path.endswith(".cc"):
        return []
    findings = []
    lines = sf.code_lines
    i = 0
    while i < len(lines):
        # Join statements split across lines (up to a small window) so a
        # wrapped call like `Foo(\n  arg);` is still one statement.
        stmt = lines[i]
        end = i
        while (
            end - i < 4
            and not stmt.rstrip().endswith((";", "{", "}"))
            and end + 1 < len(lines)
        ):
            end += 1
            stmt = stmt.rstrip() + " " + lines[end].strip()
        m = BARE_CALL_RE.match(stmt)
        if m and m.group(1) in status_fns and not CONSUMED_RE.search(stmt):
            findings.append(
                Finding(
                    sf.path,
                    i + 1,
                    "dropped-status",
                    f"result of '{m.group(1)}' (returns Status/Result) is "
                    "discarded; handle it, DM_RETURN_NOT_OK it, or cast "
                    "to (void) with a comment",
                )
            )
        i = end + 1
    return findings


# --------------------------------------------------------------------------
# hot-path-alloc
# --------------------------------------------------------------------------

HOT_PATH_FILES = (
    "src/dm/dm_query.cc",
    "src/storage/buffer_pool.cc",
    "src/mesh/extract.cc",
    "src/dm/node_cache.cc",
)
# In dm_store.cc only the fetch path is hot; Build/Open/LoadCatalog run
# once per store.
HOT_STORE_FILE = "src/dm/dm_store.cc"
HOT_STORE_FUNCTIONS = ("FetchNode", "FetchNodes")

ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*\()|std::make_unique\s*<|std::make_shared\s*<|"
    r"\bmake_unique\s*<|\bmake_shared\s*<|"
    r"std::unordered_map\s*<|std::unordered_set\s*<"
)

# Start of a top-level member-function definition in a .cc file.
FUNC_DEF_RE = re.compile(r"^[A-Za-z_][\w:<>&*\s]*\b[A-Za-z_]\w*::([A-Za-z_]\w*)\s*\(")


def _hot_line_mask(sf: SourceFile, repo_root: str) -> "list[bool]":
    """Which lines of `sf` belong to the hot path."""
    rel = _posix(os.path.relpath(sf.path, repo_root))
    n = len(sf.code_lines)
    if rel in HOT_PATH_FILES:
        return [True] * n
    if rel != HOT_STORE_FILE:
        return [False] * n
    mask = [False] * n
    current_hot = False
    for idx, line in enumerate(sf.code_lines):
        m = FUNC_DEF_RE.match(line)
        if m:
            current_hot = m.group(1) in HOT_STORE_FUNCTIONS
        mask[idx] = current_hot
        if line.startswith("}"):  # end of a top-level definition
            current_hot = False
    return mask


def check_hot_path_alloc(sf: SourceFile, repo_root: str) -> "list[Finding]":
    mask = _hot_line_mask(sf, repo_root)
    if not any(mask):
        return []
    findings = []
    for idx, line in enumerate(sf.code_lines):
        if mask[idx] and ALLOC_RE.search(line):
            findings.append(
                Finding(
                    sf.path,
                    idx + 1,
                    "hot-path-alloc",
                    "heap allocation on the query hot path; use the "
                    "per-query arena or move this to setup",
                )
            )
    return findings


# --------------------------------------------------------------------------
# raw-mutex
# --------------------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|shared_)?mutex\b|std::lock_guard\b|"
    r"std::unique_lock\b|std::scoped_lock\b|std::condition_variable(?:_any)?\b"
)

MUTEX_HOME = "src/common/thread_annotations.h"


def check_raw_mutex(sf: SourceFile, repo_root: str) -> "list[Finding]":
    rel = _posix(os.path.relpath(sf.path, repo_root))
    if rel == MUTEX_HOME:
        return []
    findings = []
    for idx, line in enumerate(sf.code_lines):
        if RAW_MUTEX_RE.search(line):
            findings.append(
                Finding(
                    sf.path,
                    idx + 1,
                    "raw-mutex",
                    "raw std synchronization primitive; use dm::Mutex / "
                    "dm::MutexLock / dm::CondVar from "
                    "common/thread_annotations.h so the thread-safety "
                    "analysis sees the acquisition",
                )
            )
    return findings


# --------------------------------------------------------------------------
# raw-thread
# --------------------------------------------------------------------------

RAW_THREAD_RE = re.compile(
    r"std::j?thread\b|std::async\b|\bpthread_create\b"
)

# The async device layer; the invariant is scoped here (not repo-wide)
# because servers and tests legitimately own std::thread workers.
ASYNC_LAYER_PREFIX = "src/storage/async"


def check_raw_thread(sf: SourceFile, repo_root: str) -> "list[Finding]":
    rel = _posix(os.path.relpath(sf.path, repo_root))
    if not rel.startswith(ASYNC_LAYER_PREFIX):
        return []
    findings = []
    for idx, line in enumerate(sf.code_lines):
        if RAW_THREAD_RE.search(line):
            findings.append(
                Finding(
                    sf.path,
                    idx + 1,
                    "raw-thread",
                    "raw thread spawn in the async I/O layer; use "
                    "WorkerPool or ServiceThreads from common/parallel.h "
                    "so lifetime (join-on-destruction) stays centralized",
                )
            )
    return findings


# --------------------------------------------------------------------------
# pin-balance
# --------------------------------------------------------------------------

PIN_HOME = ("src/storage/buffer_pool.h", "src/storage/buffer_pool.cc")
PIN_MEMBER_RE = re.compile(r"(?:\.|->)pins\b")
PIN_DEC_RE = re.compile(r"--\s*[A-Za-z_][\w.>-]*(?:\.|->)pins\b|"
                        r"(?:\.|->)pins\s*--|(?:\.|->)pins\s*-=")


def check_pin_balance(
    sf: SourceFile, repo_root: str
) -> "list[Finding]":
    rel = _posix(os.path.relpath(sf.path, repo_root))
    findings = []
    if rel not in PIN_HOME:
        for idx, line in enumerate(sf.code_lines):
            if PIN_MEMBER_RE.search(line):
                findings.append(
                    Finding(
                        sf.path,
                        idx + 1,
                        "pin-balance",
                        "frame pin count touched outside "
                        "buffer_pool.{h,cc}; go through Fetch/Unpin so "
                        "accounting stays balanced",
                    )
                )
        return findings
    if rel != "src/storage/buffer_pool.cc":
        return []
    # Inside buffer_pool.cc: every decrement must live in Unpin().
    current_fn = None
    for idx, line in enumerate(sf.code_lines):
        m = FUNC_DEF_RE.match(line)
        if m:
            current_fn = m.group(1)
        if PIN_DEC_RE.search(line) and current_fn != "Unpin":
            findings.append(
                Finding(
                    sf.path,
                    idx + 1,
                    "pin-balance",
                    f"pin count decremented in '{current_fn}'; all "
                    "unpinning must go through Unpin() so a new "
                    "early-return path cannot leak a pin",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def apply_suppressions(
    sf: SourceFile, findings: "list[Finding]"
) -> "list[Finding]":
    kept = []
    for f in findings:
        allow = sf.allow_at(f.line)
        if allow is None:
            kept.append(f)
            continue
        check, justification = allow
        if check != f.check:
            kept.append(f)
            kept.append(
                Finding(
                    sf.path,
                    f.line,
                    "bad-suppression",
                    f"allow({check}) does not match the finding here "
                    f"({f.check})",
                )
            )
        elif not justification:
            kept.append(
                Finding(
                    sf.path,
                    f.line,
                    "bad-suppression",
                    f"allow({check}) needs a justification after the "
                    "closing parenthesis",
                )
            )
        # matching check + non-empty justification: suppressed.
    return kept


def lint_files(paths: "list[str]", repo_root: str) -> "list[Finding]":
    sources = []
    for path in paths:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                sources.append(SourceFile(path, f.read()))
        except OSError as e:
            print(f"dm_lint: cannot read {path}: {e}", file=sys.stderr)
    status_fns = harvest_status_functions(sources)
    all_findings = []
    for sf in sources:
        findings = []
        findings += check_dropped_status(sf, status_fns)
        findings += check_hot_path_alloc(sf, repo_root)
        findings += check_raw_mutex(sf, repo_root)
        findings += check_pin_balance(sf, repo_root)
        findings += check_raw_thread(sf, repo_root)
        all_findings += apply_suppressions(sf, findings)
    all_findings.sort(key=lambda f: (f.path, f.line))
    return all_findings


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="DM-specific lint (see module docstring)"
    )
    parser.add_argument(
        "--build-dir",
        help="build directory containing compile_commands.json "
        "(default: first match of <repo>/build*/)",
    )
    parser.add_argument(
        "--repo-root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="specific files to lint (default: all sources from "
        "compile_commands.json plus in-repo headers)",
    )
    args = parser.parse_args(argv)
    repo_root = os.path.abspath(args.repo_root)

    if args.paths:
        paths = [os.path.abspath(p) for p in args.paths]
    else:
        try:
            cc = find_compile_commands(repo_root, args.build_dir)
        except FileNotFoundError as e:
            print(f"dm_lint: {e}", file=sys.stderr)
            return 2
        paths = collect_sources(repo_root, cc)

    findings = lint_files(paths, repo_root)
    for f in findings:
        print(f.render(repo_root))
    if findings:
        print(
            f"dm_lint: {len(findings)} finding(s); suppress with "
            "'// dm-lint: allow(<check>) <why>' where the invariant "
            "genuinely does not apply",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
