#!/usr/bin/env python3
"""House-rule linter for the Regel tree (runs as a ctest and in CI).

Rules, each with a short slug used in output and inline suppressions:

  clock-seam     No std::chrono::steady_clock / system_clock /
                 std::this_thread::sleep_for|sleep_until outside
                 support/Clock.* and the documented allowlist below.
                 Virtual-time tests only work when time flows through the
                 Clock seam; a stray steady_clock::now() is a test
                 flake factory.

  guarded-mutex  Every mutex member (std::mutex or regel Mutex) must live
                 in a class that annotates at least one field with
                 REGEL_GUARDED_BY. A mutex with no guarded field is
                 either dead weight or an undocumented protocol the
                 thread-safety analysis cannot check.

  naked-new      No naked new/delete in src/: `new` is allowed only as
                 the direct argument of a smart-pointer constructor or
                 .reset() (the private-constructor factory pattern that
                 make_shared cannot express); `delete` only as
                 `= delete`.

  ntsa-lock-comment
                 Every REGEL_NO_THREAD_SAFETY_ANALYSIS helper must name,
                 in a trailing comment or the comment block directly
                 above it, the lock its callers hold — the annotation
                 turns the checker off, so the contract has to live in
                 prose. One block may cover a run of consecutive helpers
                 with no blank line between them (the RemoteService
                 CV-predicate style).

  env-knob       No getenv / std::getenv in src/: library behaviour comes
                 from config structs (SynthConfig, EngineConfig, ...), so
                 every setting is visible to the caller and to tests. An
                 environment read is a hidden knob nothing documents.
                 Benches and examples may read the environment; src/
                 may not.

A line may carry `// lint:allow <slug>` to suppress one finding with the
justification expected in the surrounding comment. File-level allowlist
entries (clock-seam only) are below, each with its reason.

Usage:
  tools/lint.py [--root DIR]      lint DIR/src (default: repo root)
  tools/lint.py --self-test       run the fixture suite in tests/tools/
"""

import argparse
import os
import re
import sys

# Files where real-time chrono is the point, not a seam violation.
CLOCK_ALLOWLIST = {
    # The seam itself.
    "support/Clock.h",
    "support/Clock.cpp",
    # Stopwatch: deliberately real-time (parse timing, accept backoff).
    "support/Timer.h",
    # Accept-loop EMFILE backoff sleeps real time; poll() timeouts are
    # real milliseconds by contract.
    "server/SocketServer.cpp",
    # Cache-probe spacing (NextHealthProbe etc.) is real time: remote
    # processes do not share the engine's virtual clock.
    "service/RemoteService.h",
    "service/RemoteService.cpp",
    # waitCompleted deadline is real time across backends that do not
    # share a clock.
    "service/RouterService.cpp",
    # Idle-wait backstop is deliberately real time: dispatch must keep
    # moving under a ManualClock that never advances.
    "engine/WorkerPool.cpp",
}

CLOCK_RE = re.compile(
    r"std::chrono::steady_clock|std::chrono::system_clock"
    r"|std::this_thread::sleep_for|std::this_thread::sleep_until")

MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:std::mutex|(?:regel::)?Mutex)\s+\w+"
    r"(?:\s*,\s*\w+)*\s*;")
GUARDED_RE = re.compile(r"REGEL_(?:PT_)?GUARDED_BY\s*\(")
CLASS_OPEN_RE = re.compile(r"\b(?:class|struct)\s+(?:REGEL_\w+\(.*?\)\s+)?"
                           r"(\w+)[^;{}()]*\{")

ALLOW_RE = re.compile(r"//\s*lint:allow\s+([\w-]+)")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so the rule regexes never match inside either. Inline
    `// lint:allow` markers are collected per line before stripping."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            out.append(q + " " * (j - i - 1) + q)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def check_clock_seam(rel, text, stripped, allows):
    if rel in CLOCK_ALLOWLIST:
        return []
    findings = []
    for m in CLOCK_RE.finditer(stripped):
        ln = line_of(stripped, m.start())
        if "clock-seam" in allows.get(ln, ()):
            continue
        findings.append(Finding(
            rel, ln, "clock-seam",
            f"{m.group(0)} outside support/Clock (use the Clock seam, or "
            "add a justified allowlist entry in tools/lint.py)"))
    return findings


def check_guarded_mutex(rel, text, stripped, allows):
    """Brace-tracked scan: records mutex members against the innermost
    class/struct body and requires a REGEL_GUARDED_BY in that same body
    (nested classes are their own scope; function bodies are not class
    scope, so function-local mutexes never trip the rule)."""
    findings = []
    # Stack entries: [is_class, has_guarded, mutex_decls]
    stack = []
    i, n = 0, len(stripped)
    while i < n:
        m = CLASS_OPEN_RE.match(stripped, i) if stripped[i].isalpha() else None
        # Only try the (expensive) class regex at plausible starts.
        if stripped.startswith(("class", "struct"), i) and \
                (i == 0 or not (stripped[i - 1].isalnum() or
                                stripped[i - 1] == "_")):
            m = CLASS_OPEN_RE.match(stripped, i)
        else:
            m = None
        if m:
            stack.append([True, False, []])
            i = m.end()
            continue
        c = stripped[i]
        if c == "{":
            stack.append([False, False, []])
        elif c == "}":
            if stack:
                is_class, has_guarded, decls = stack.pop()
                if is_class and decls and not has_guarded:
                    for ln, name in decls:
                        findings.append(Finding(
                            rel, ln, "guarded-mutex",
                            f"mutex member '{name}' in a class with no "
                            "REGEL_GUARDED_BY field — annotate what it "
                            "protects (support/ThreadAnnotations.h)"))
                # A guarded field in a nested scope does not satisfy the
                # outer class; nothing propagates.
        elif c == "\n":
            # Line-based rules evaluated on the innermost CLASS scope.
            start = stripped.rfind("\n", 0, i) + 1
            line = stripped[start:i]
            ln = line_of(stripped, start)
            encl = next((f for f in reversed(stack) if f[0]), None)
            innermost_is_class = bool(stack) and stack[-1][0]
            if GUARDED_RE.search(line) and innermost_is_class:
                stack[-1][1] = True
            mm = MUTEX_MEMBER_RE.match(line)
            if mm and innermost_is_class and \
                    "guarded-mutex" not in allows.get(ln, ()):
                name = re.search(r"(\w+)(?:\s*,.*)?\s*;", line).group(1)
                stack[-1][2].append((ln, name))
        i += 1
    return findings


NEW_OK_BEFORE_RE = re.compile(
    r"(?:\w*(?:Ptr|_ptr)\s*(?:<[^<>;]*>)?\s*\w*\s*\(|\.\s*reset\s*\()\s*$")


def check_naked_new(rel, text, stripped, allows):
    findings = []
    for m in re.finditer(r"\bnew\b|\bdelete\b(?:\s*\[\s*\])?", stripped):
        ln = line_of(stripped, m.start())
        if "naked-new" in allows.get(ln, ()):
            continue
        tok = m.group(0)
        if tok.startswith("delete"):
            before = stripped[:m.start()].rstrip()
            if before.endswith("="):  # `= delete`
                continue
            findings.append(Finding(
                rel, ln, "naked-new",
                "naked delete in src/ — ownership belongs in a smart "
                "pointer"))
        else:
            before = stripped[max(0, m.start() - 120):m.start()]
            before = re.sub(r"\s+", " ", before)
            if NEW_OK_BEFORE_RE.search(before):
                continue  # direct smart-pointer wrap: the factory pattern
            findings.append(Finding(
                rel, ln, "naked-new",
                "naked new in src/ — wrap it directly in a smart-pointer "
                "constructor (or use make_unique/make_shared)"))
    return findings


NTSA_RE = re.compile(r"\bREGEL_NO_THREAD_SAFETY_ANALYSIS\b")
MUTEX_NAME_RE = re.compile(r"\b(?:std::mutex|Mutex)\s+(\w+)")
COMMENT_LINE_RE = re.compile(r"\s*(?:///?|/\*+|\*+/?)(.*)$")


def check_ntsa_lock_comment(rel, text, stripped, allows):
    """Scans the ORIGINAL text for the covering comment (comments are
    blanked in `stripped`, which is only used to find real macro uses —
    never ones inside comments or the #define itself). A helper is
    covered by a lock-naming comment trailing its signature line or in
    the contiguous comment block directly above it; coverage extends
    over the next helper when only the previous helper's own definition
    and comment lines separate them, so one block can document a run of
    CV predicates — any other code (or a blank line) breaks the run."""
    lines = text.splitlines()
    slines = stripped.splitlines()
    mutexes = set(MUTEX_NAME_RE.findall(stripped))

    def names_lock(comment):
        words = set(re.findall(r"\w+", comment))
        if mutexes & words:
            return True
        # No mutex declared in this file (the lock lives elsewhere):
        # accept any lock-ish identifier rather than guessing names.
        return not mutexes and bool(
            re.search(r"\b\w*(?:M|Mutex|Lock)\b", comment))

    def run_covers(prev_ln, ln):
        # The run stays alive only across the previous helper's own
        # definition (signature + brace-balanced body, or a declaration
        # ending in ';') and comment lines; unrelated code in between
        # must not inherit a distant helper's comment.
        depth, opened, in_helper = 0, False, True
        for i in range(prev_ln - 1, ln - 1):
            if not lines[i].strip():
                return False  # blank line breaks the run
            if in_helper:
                s = slines[i]
                depth += s.count("{") - s.count("}")
                opened = opened or "{" in s
                if (opened and depth <= 0) or (not opened and ";" in s):
                    in_helper = False
                continue
            if not COMMENT_LINE_RE.match(lines[i]):
                return False
        return True

    findings = []
    prev_line, prev_ok = None, False
    for m in NTSA_RE.finditer(stripped):
        ln = line_of(stripped, m.start())
        if slines[ln - 1].lstrip().startswith("#"):
            continue  # the macro's own #define in ThreadAnnotations.h
        comment = []
        cm = re.search(r"//+(.*)$|/\*(.*?)\*/", lines[ln - 1])
        if cm:
            comment.append(cm.group(1) or cm.group(2) or "")
        k = ln - 2
        while k >= 0:
            cb = COMMENT_LINE_RE.match(lines[k])
            if not cb:
                break
            comment.append(cb.group(1))
            k -= 1
        ok = names_lock(" ".join(comment))
        if not ok and prev_ok and prev_line is not None and \
                run_covers(prev_line, ln):
            ok = True  # covered run: only the prior helper + comments since
        prev_line, prev_ok = ln, ok
        if ok or "ntsa-lock-comment" in allows.get(ln, ()):
            continue
        findings.append(Finding(
            rel, ln, "ntsa-lock-comment",
            "REGEL_NO_THREAD_SAFETY_ANALYSIS without a comment naming "
            "the lock its callers hold (trailing, or in the comment "
            "block directly above; one block may cover consecutive "
            "helpers)"))
    return findings


ENV_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")


def check_env_knob(rel, text, stripped, allows):
    findings = []
    for m in ENV_RE.finditer(stripped):
        ln = line_of(stripped, m.start())
        if "env-knob" in allows.get(ln, ()):
            continue
        findings.append(Finding(
            rel, ln, "env-knob",
            "environment read in src/ — take the setting from a config "
            "struct instead"))
    return findings


CHECKS = [check_clock_seam, check_guarded_mutex, check_naked_new,
          check_ntsa_lock_comment, check_env_knob]


def lint_file(root, path):
    rel = os.path.relpath(path, os.path.join(root, "src"))
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    allows = {}
    for ln, line in enumerate(text.splitlines(), 1):
        for m in ALLOW_RE.finditer(line):
            allows.setdefault(ln, set()).add(m.group(1))
    stripped = strip_comments_and_strings(text)
    findings = []
    for check in CHECKS:
        findings.extend(check(rel, text, stripped, allows))
    return findings


def lint_tree(root):
    findings = []
    src = os.path.join(root, "src")
    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if name.endswith((".h", ".cpp", ".inc")):
                findings.extend(lint_file(root, os.path.join(dirpath, name)))
    return findings


def self_test(root):
    """Runs the fixture suite: tests/tools/fixtures/<name>.cpp paired
    with <name>.expect (one `rule:line` per expected finding; empty file
    = must be clean). Fixture paths are linted as if under src/."""
    fixdir = os.path.join(root, "tests", "tools", "fixtures")
    failures = []
    cases = 0
    for name in sorted(os.listdir(fixdir)):
        if not name.endswith((".cpp", ".h")):
            continue
        cases += 1
        path = os.path.join(fixdir, name)
        expect_path = os.path.splitext(path)[0] + ".expect"
        expected = set()
        with open(expect_path, encoding="utf-8") as f:
            for raw in f:
                raw = raw.strip()
                if raw and not raw.startswith("#"):
                    expected.add(raw)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        allows = {}
        for ln, line in enumerate(text.splitlines(), 1):
            for m in ALLOW_RE.finditer(line):
                allows.setdefault(ln, set()).add(m.group(1))
        stripped = strip_comments_and_strings(text)
        got = set()
        for check in CHECKS:
            for fnd in check(name, text, stripped, allows):
                got.add(f"{fnd.rule}:{fnd.line}")
        if got != expected:
            failures.append(
                f"{name}: expected {sorted(expected)!r}, got {sorted(got)!r}")
    if failures:
        print("lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print(f"lint self-test: {cases} fixture(s) passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test(args.root)
    findings = lint_tree(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
