#!/usr/bin/env python3
"""Repo-specific invariant linter for the Pincer-Search codebase.

Enforces project rules that clang-tidy cannot express (CI job
`lint-and-format`):

  naked-new        `new` / `malloc`-family in C++ sources outside src/util/.
                   Ownership lives in containers and unique_ptr; the few
                   intentional leaks (function-local statics, bench fixtures
                   measured without teardown) carry a
                   `// lint: allow-new(<reason>)` suppression.
  std-endl         `std::endl` anywhere under src/ — counting loops and the
                   JSON logger write through streams, and an accidental
                   flush per line is a real slowdown; use '\\n'.
  nondeterminism   rand()/srand()/std::random_device/std::mt19937/
                   std::default_random_engine outside src/gen/ and
                   src/util/prng.h. Reproducibility is a core guarantee
                   (differential harness, checkpoint resume bit-identity),
                   so all randomness flows through the seeded SplitMix64
                   PRNG.
  raw-mutex        std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable (and friends) anywhere outside
                   src/util/sync.h. Lock protocols are compiler-checked via
                   the annotated Mutex/MutexLock/CondVar wrappers (Clang
                   -Wthread-safety); a raw primitive is invisible to that
                   analysis. Suppress (e.g. in a test that needs a bare
                   std::mutex on purpose) with
                   `// lint: allow-raw-mutex(<reason>)`.
  include-guard    every header uses a PINCER_<PATH>_H_ include guard whose
                   name matches its path (src/ prefix stripped), so moves
                   and copies cannot silently collide.
  relative-include `#include "../..."` — all project includes are rooted at
                   the repo top (e.g. "core/mfcs.h"), which keeps the
                   facade layering visible and greppable.
  todo-owner       TODO comments must name an owner: `TODO(name): ...`.
  unchecked-number-parse
                   `strto*(..., nullptr...)` (no end pointer, so trailing
                   garbage and empty tokens pass silently) and `atoi`/
                   `atol`/`atoll`/`atof` (no error report at all) in C++
                   sources. Parse text through util/parse_number.h (or a
                   util/flags.h table for flags), or check the end pointer;
                   suppress with `// lint: allow-unchecked-parse(<reason>)`.

Usage:
  scripts/lint.py              lint all tracked sources; exit 1 on findings
  scripts/lint.py FILE...      lint specific files
  scripts/lint.py --self-test  verify every rule fires on a seeded violation
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CPP_SUFFIXES = {".cc", ".h"}

ALLOW_NEW = re.compile(r"//\s*lint:\s*allow-new\b")
ALLOW_RAW_MUTEX = re.compile(r"//\s*lint:\s*allow-raw-mutex\b")
RAW_MUTEX = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(_any)?)\b"
)
NAKED_NEW = re.compile(r"\bnew\s+[A-Za-z_:(<]")
MALLOC_FAMILY = re.compile(r"\b(malloc|calloc|realloc|free)\s*\(")
STD_ENDL = re.compile(r"\bstd::endl\b")
NONDETERMINISM = re.compile(
    r"\b(rand|srand)\s*\(|std::(random_device|mt19937(_64)?|"
    r"default_random_engine)\b"
)
RELATIVE_INCLUDE = re.compile(r'#\s*include\s+"\.\./')
TODO_WITHOUT_OWNER = re.compile(r"\bTODO\b(?!\([A-Za-z0-9_.\- ]+\))")
ALLOW_UNCHECKED_PARSE = re.compile(r"//\s*lint:\s*allow-unchecked-parse\b")
STRTO_CALL = re.compile(r"\bstrto(l|ul|ll|ull|f|d|ld|imax|umax)\s*\(")
# The end-pointer argument of a strto* call: the second one.
NULL_END_POINTER = re.compile(r"^[^,;]*,\s*(nullptr|NULL|0)\s*[,)]")
ATO_CALL = re.compile(r"\bato(i|l|ll|f)\s*\(")


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and the contents of string/char literals.

    Line-local approximation (no multi-line /* */ or raw-string tracking);
    good enough for these rules because the patterns they match never span
    lines, and block comments in this codebase start the line (caught by the
    leading-* check in callers via this same stripping).
    """
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def in_block_comment_prefix(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith("*") or stripped.startswith("/*")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def rel(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def expected_guard(relpath: str) -> str:
    trimmed = relpath[4:] if relpath.startswith("src/") else relpath
    mangled = re.sub(r"[^A-Za-z0-9]", "_", trimmed).upper()
    return f"PINCER_{mangled}_"


def lint_file(path: Path, relpath: str, text: str) -> list[Finding]:
    findings: list[Finding] = []
    lines = text.splitlines()
    is_cpp = path.suffix in CPP_SUFFIXES
    in_src = relpath.startswith("src/")
    in_util = relpath.startswith("src/util/")

    for lineno, raw in enumerate(lines, start=1):
        if in_block_comment_prefix(raw):
            code = ""
        else:
            code = strip_comments_and_strings(raw)

        # A `// lint: allow-new(...)` suppression applies to its own line or,
        # when the comment needs room, to the line after it.
        prev = lines[lineno - 2] if lineno >= 2 else ""
        suppressed = ALLOW_NEW.search(raw) or ALLOW_NEW.search(prev)
        if is_cpp and not in_util and not suppressed:
            if NAKED_NEW.search(code) or MALLOC_FAMILY.search(code):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "naked-new",
                        "raw allocation outside src/util/ — use a container "
                        "or unique_ptr, or suppress with "
                        "// lint: allow-new(<reason>)",
                    )
                )

        raw_mutex_suppressed = ALLOW_RAW_MUTEX.search(raw) or (
            ALLOW_RAW_MUTEX.search(prev)
        )
        if (
            is_cpp
            and relpath != "src/util/sync.h"
            and not raw_mutex_suppressed
            and RAW_MUTEX.search(code)
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "raw-mutex",
                    "raw synchronization primitive outside src/util/sync.h "
                    "— use the annotated Mutex/MutexLock/CondVar wrappers "
                    "(compiler-checked lock protocols), or suppress with "
                    "// lint: allow-raw-mutex(<reason>)",
                )
            )

        if is_cpp and in_src and STD_ENDL.search(code):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "std-endl",
                    "std::endl flushes per line; use '\\n'",
                )
            )

        if (
            is_cpp
            and in_src
            and not relpath.startswith("src/gen/")
            and relpath != "src/util/prng.h"
            and NONDETERMINISM.search(code)
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "nondeterminism",
                    "unseeded randomness outside src/gen//src/util/prng.h "
                    "breaks reproducibility; use pincer::SplitMix64",
                )
            )

        if is_cpp and RELATIVE_INCLUDE.search(raw):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "relative-include",
                    'includes are rooted at the repo top ("core/mfcs.h"), '
                    'never relative ("../")',
                )
            )

        # The linter itself must spell out ownerless TODOs (rule docs and
        # self-test seeds), so it is exempt the same way prng.h is for the
        # nondeterminism rule.
        if relpath != "scripts/lint.py" and TODO_WITHOUT_OWNER.search(raw):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "todo-owner",
                    "TODO must name an owner: TODO(name): ...",
                )
            )

        parse_suppressed = ALLOW_UNCHECKED_PARSE.search(
            raw
        ) or ALLOW_UNCHECKED_PARSE.search(prev)
        if is_cpp and not parse_suppressed:
            call = STRTO_CALL.search(code)
            unchecked = False
            if call:
                # A call may wrap: read its arguments on into the next lines.
                following = lines[lineno : lineno + 2]
                args = " ".join(
                    [code[call.end() :]]
                    + [strip_comments_and_strings(x) for x in following]
                )
                unchecked = NULL_END_POINTER.search(args) is not None
            if unchecked or ATO_CALL.search(code):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "unchecked-number-parse",
                        "number parse without an error check — use "
                        "util/parse_number.h, or suppress with "
                        "// lint: allow-unchecked-parse(<reason>)",
                    )
                )

    if path.suffix == ".h" and (in_src or relpath.startswith("fuzz/")):
        guard = expected_guard(relpath)
        if f"#ifndef {guard}" not in text or f"#define {guard}" not in text:
            findings.append(
                Finding(
                    path,
                    1,
                    "include-guard",
                    f"header must use include guard {guard} "
                    "(matching its path)",
                )
            )

    return findings


def tracked_files() -> list[Path]:
    out = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    lintable: list[Path] = []
    for name in out.splitlines():
        p = REPO_ROOT / name
        if p.suffix in CPP_SUFFIXES or p.suffix in {".py", ".sh", ".cmake"}:
            lintable.append(p)
        elif p.name == "CMakeLists.txt":
            lintable.append(p)
    return lintable


def run(paths: list[Path]) -> int:
    findings: list[Finding] = []
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            print(f"{path}: unreadable: {err}", file=sys.stderr)
            return 2
        findings.extend(lint_file(path, rel(path), text))
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


SELF_TEST_CASES = {
    "naked-new": ("src/core/x.cc", "int* p = new int(3);\n"),
    "naked-new-suppressed-ok": (
        "src/core/x.cc",
        "int* p = new int(3);  // lint: allow-new(test fixture)\n",
    ),
    "naked-new-util-ok": ("src/util/x.cc", "int* p = new int(3);\n"),
    "naked-new-comment-ok": ("src/core/x.cc", "// without a new read\n"),
    "malloc": ("src/core/x.cc", "void* p = malloc(8);\n"),
    "std-endl": ("src/core/x.cc", "os << std::endl;\n"),
    "std-endl-tests-ok": ("tests/x.cc", "os << std::endl;\n"),
    "raw-mutex": ("src/core/x.cc", "std::mutex mu;\n"),
    "raw-mutex-lock-guard": (
        "tests/x.cc",
        "std::lock_guard<std::mutex> lock(mu);\n",
    ),
    "raw-mutex-condvar": ("src/serve/x.cc", "std::condition_variable cv;\n"),
    "raw-mutex-sync-h-ok": (
        "src/util/sync.h",
        "#ifndef PINCER_UTIL_SYNC_H_\n#define PINCER_UTIL_SYNC_H_\n"
        "std::mutex mu_;\n#endif  // PINCER_UTIL_SYNC_H_\n",
    ),
    "raw-mutex-suppressed-ok": (
        "src/core/x.cc",
        "std::mutex mu;  // lint: allow-raw-mutex(interop with external API)\n",
    ),
    "raw-mutex-comment-ok": (
        "src/core/x.cc",
        "// std::mutex is forbidden outside sync.h\n",
    ),
    "nondeterminism": ("src/core/x.cc", "int r = rand();\n"),
    "nondeterminism-gen-ok": ("src/gen/x.cc", "std::mt19937 rng;\n"),
    "relative-include": ("src/core/x.cc", '#include "../util/y.h"\n'),
    "todo-owner": ("src/core/x.cc", "// TODO: fix this\n"),
    "todo-owner-named-ok": ("src/core/x.cc", "// TODO(pincer): fix this\n"),
    "unchecked-number-parse-strtoul": (
        "bench/x.cc",
        "size_t n = std::strtoul(arg.c_str() + 8, nullptr, 10);\n",
    ),
    "unchecked-number-parse-wrapped": (
        "examples/x.cc",
        "double d = std::strtod(argv[1],\n                       nullptr);\n",
    ),
    "unchecked-number-parse-atoi": ("tests/x.cc", "int n = atoi(text);\n"),
    "unchecked-number-parse-end-pointer-ok": (
        "src/util/x.cc",
        "const double v = std::strtod(token.c_str(), &end);\n",
    ),
    "unchecked-number-parse-suppressed-ok": (
        "examples/x.cc",
        "// lint: allow-unchecked-parse(fixed literal)\n"
        "int n = atoi(\"42\");\n",
    ),
    "include-guard": (
        "src/core/x.h",
        "#ifndef WRONG_GUARD_H_\n#define WRONG_GUARD_H_\n#endif\n",
    ),
    "include-guard-ok": (
        "src/core/x.h",
        "#ifndef PINCER_CORE_X_H_\n#define PINCER_CORE_X_H_\n"
        "#endif  // PINCER_CORE_X_H_\n",
    ),
}


def self_test() -> int:
    failures = 0
    for name, (relpath, content) in SELF_TEST_CASES.items():
        expect_clean = name.endswith("-ok")
        findings = lint_file(Path(relpath), relpath, content)
        ok = (not findings) if expect_clean else bool(findings)
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        detail = "; ".join(str(f) for f in findings) or "clean"
        print(f"[{status}] {name}: {detail}")
    # End-to-end: a seeded violation written to disk must make the CLI exit
    # nonzero, and an empty run must exit zero.
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "seeded.cc"
        bad.write_text("int* p = new int; os << std::endl; // TODO: x\n")
        proc = subprocess.run(
            [sys.executable, __file__, str(bad)], capture_output=True
        )
        if proc.returncode == 0:
            print("[FAIL] cli-seeded-violation: expected nonzero exit")
            failures += 1
        else:
            print("[PASS] cli-seeded-violation")
    if failures:
        print(f"lint.py --self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print("lint.py --self-test: all rules fire")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="seed one violation per rule and verify each fires",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    paths = args.files or tracked_files()
    return run(paths)


if __name__ == "__main__":
    sys.exit(main())
