#!/usr/bin/env python3
"""Repository convention linter (run by scripts/check.sh and CI).

Checks, over *tracked* files only (git ls-files; in a copy of the
sources with no .git, every file under the root except the top-level
build trees and .bench_build, and .git and __pycache__ at any depth):
  1. include guards match the file path (HYGNN_<PATH>_H_, src/ stripped)
  2. no `using namespace` in headers
  3. every .cc under src/, and every .cc or .cpp under tests/, bench/
     and examples/, is registered in its directory's CMakeLists.txt: by
     file name, or by the stem hygnn_add_test, hygnn_add_bench and
     hygnn_add_example take (an unregistered file never builds)
  4. no raw assert( in src/ — use HYGNN_CHECK / HYGNN_DCHECK
  5. no committed build artifacts (build trees, objects, caches)
  6. src/tensor/ops.cc and src/tensor/loss.cc contain no raw compute
     loops — numeric work belongs in src/tensor/kernels/ (the recording
     layer only does shape checks and graph wiring; it validates inputs
     through helpers such as IndicesInRange)
  7. no raw std::ofstream/std::ifstream/std::fstream under src/serve/ or
     src/data/ — persistence there must go through core::FileSystem
     (src/core/fs.h) so fault injection and the durable-write protocol
     (temp + fsync + rename + checksum footer) cover every byte on disk
  8. retired: it kept core::Stopwatch out of src/hygnn/ and src/serve/;
     the type is deleted, so the compiler now rejects every use

Determinism & concurrency discipline (rules 9-12 and 14,
DISCIPLINE_RULES; these keep every nondeterminism source, and the one
grouping, inside its sanctioned home so the bit-identity guarantee
survives concurrent code):

  9. no rand()/srand()/std::random_device/std::mt19937 outside
     src/core/rng and tests/ — all randomness flows through the seeded
     core::Rng stream, which checkpoints pin for bit-identical resume
 10. no wall clocks (system_clock / high_resolution_clock) anywhere in
     src/, bench/, or examples/, and no steady_clock outside
     src/core/clock.cc, the one monotonic read — timing goes through
     obs (Timer, ScopedTimer, NowNanos) and semantic time through
     core::Clock, so no clock read can leak into computed results
 11. no raw std::thread or .detach() outside src/core/thread_pool —
     concurrency runs on the shared pool whose grain-based chunking is
     what makes parallel results bit-identical
 12. no bare std::mutex / std::condition_variable / std::lock_guard /
     std::unique_lock / std::scoped_lock outside src/core/ — locking
     routes through the annotated core::Mutex wrappers
     (src/core/mutex.h) so Clang Thread Safety Analysis sees every
     acquisition
 13. src/tensor/ops.cc and src/tensor/loss.cc never invoke the kernel
     layer directly (no `kernels::` calls, no
     `#include "tensor/kernels/...`) — ops and losses only *record* tape
     nodes (tensor/tape.h); all kernel dispatch lives in the tape
     executor, which is what lets execution (threading, kernel choice)
     change without touching the op API
 14. no counting-sort count step (`++offsets[key + 1]` or
     `offsets[key + 1]++`) in src/, bench/ or examples/ outside
     src/core/csr.cc — items grouped by key go through
     core::Csr::GroupBy, the one stable grouping, as rule 10 keeps the
     one monotonic read in src/core/clock.cc

Exits 0 when clean, 1 with one line per violation otherwise.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

BUILD_ARTIFACT_PATTERNS = [
    re.compile(r"^build[^/]*/"),
    re.compile(r"^cmake-build[^/]*/"),
    re.compile(r"\.(o|a|so|obj|exe)$"),
    re.compile(r"(^|/)CMakeCache\.txt$"),
    re.compile(r"(^|/)CMakeFiles/"),
    re.compile(r"(^|/)compile_commands\.json$"),
]

RAW_ASSERT = re.compile(r"(?<![\w_])assert\s*\(")
USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b")
LINE_COMMENT = re.compile(r"//.*$")
RAW_LOOP = re.compile(r"(?<![\w_])(for|while)\s*\(")

# Files that must stay loop-free: the recording layer delegates all
# numeric iteration to the kernel layer (src/tensor/kernels/).
# sparse.cc records SpMM too but stays out: CsrMatrix::FromCoo loops.
NO_LOOP_FILES = {"src/tensor/ops.cc", "src/tensor/loss.cc"}

RAW_KERNEL_CALL = re.compile(
    r"\bkernels\s*::\s*\w+|#\s*include\s*\"tensor/kernels/")

# Files that must never invoke the kernel layer: the op layer records
# tape nodes only (tensor/tape.h); dispatch belongs to the executor.
NO_KERNEL_CALL_FILES = {"src/tensor/ops.cc", "src/tensor/loss.cc"}

RAW_FILE_STREAM = re.compile(
    r"(?:std::)?(?:o|i)?fstream\b|#\s*include\s*<fstream>")

# Directories whose persistence must route through core::FileSystem:
# a raw stream bypasses fault injection, the atomic temp+fsync+rename
# protocol, and checksum footers, so a crash there can tear files.
NO_RAW_STREAM_DIRS = ("src/serve/", "src/data/")

# Rules 9-12 and 14: each nondeterminism / concurrency primitive, and
# the counting sort, is confined to a sanctioned home. A rule applies to
# files whose repo-relative path starts with a `scope` prefix and none
# of the `exempt` prefixes; matching is over comment-stripped lines.
DISCIPLINE_RULES = (
    {
        "rule": 9,
        "pattern": re.compile(
            r"(?<![\w_])(?:std\s*::\s*)?s?rand\s*\("
            r"|std\s*::\s*random_device"
            r"|std\s*::\s*(?:mt19937|minstd_rand|default_random_engine)"),
        "scope": ("src/", "bench/", "examples/"),
        "exempt": ("src/core/rng.",),
        "message": (
            "ad-hoc RNG — randomness must flow through the seeded "
            "core::Rng stream (src/core/rng.h) so checkpoints can pin "
            "and replay it bit-identically"),
    },
    {
        "rule": 10,
        "pattern": re.compile(
            r"\b(?:system_clock|high_resolution_clock)\b"),
        "scope": ("src/", "bench/", "examples/"),
        "exempt": (),
        "message": (
            "wall clock — system_clock/high_resolution_clock are "
            "nondeterministic across runs; time spans with obs::Timer / "
            "obs::NowNanos"),
    },
    {
        "rule": 10,
        "pattern": re.compile(r"\bsteady_clock\b"),
        "scope": ("src/", "bench/", "examples/"),
        "exempt": ("src/core/clock.cc",),
        "message": (
            "raw steady_clock read — src/core/clock.cc holds the one "
            "monotonic read; time spans with obs::Timer / "
            "obs::ScopedTimer / obs::NowNanos and semantic time with "
            "core::ActiveClock"),
    },
    {
        "rule": 11,
        "pattern": re.compile(r"\bstd\s*::\s*thread\b|\.\s*detach\s*\("),
        "scope": ("src/", "bench/", "examples/"),
        "exempt": ("src/core/thread_pool.",),
        "message": (
            "raw std::thread — concurrency runs on core::ParallelFor "
            "(src/core/thread_pool.h), whose fixed grain chunking keeps "
            "results bit-identical at any thread count"),
    },
    {
        "rule": 12,
        "pattern": re.compile(
            r"\bstd\s*::\s*(?:mutex|recursive_mutex|timed_mutex"
            r"|recursive_timed_mutex|shared_mutex|shared_timed_mutex"
            r"|condition_variable|condition_variable_any|lock_guard"
            r"|unique_lock|scoped_lock)\b"),
        "scope": ("src/", "bench/", "examples/"),
        "exempt": ("src/core/",),
        "message": (
            "bare std mutex primitive — use the annotated core::Mutex / "
            "core::MutexLock / core::CondVar (src/core/mutex.h) so Clang "
            "Thread Safety Analysis sees the acquisition"),
    },
    {
        "rule": 14,
        "pattern": re.compile(
            r"\+\+\s*[A-Za-z_][\w.>\-]*\[.*\+\s*1\]"
            r"|[A-Za-z_][\w.>\-]*\[.*\+\s*1\]\s*\+\+"),
        "scope": ("src/", "bench/", "examples/"),
        "exempt": ("src/core/csr.cc",),
        "message": (
            "hand-rolled counting sort — group items by key with "
            "core::Csr::GroupBy (src/core/csr.h), the one stable "
            "grouping"),
    },
)


# What the tree walk skips: the build trees .gitignore names, at the top
# level only, and at any depth git's own directory and Python's
# bytecode caches.
UNTRACKED_TOP_DIRS = re.compile(
    r"^(\.bench_build|build|build-.*|cmake-build-.*)$")
UNTRACKED_DIRS = (".git", "__pycache__")


def tracked_files():
    """Repo-relative paths of the files to lint: `git ls-files` when the
    root is a git work tree (it holds a .git), where a failing git
    raises; otherwise, as in an exported copy, a walk of the tree."""
    if not (REPO / ".git").exists():
        return walked_files()
    out = subprocess.run(
        ["git", "ls-files"], cwd=REPO, check=True, capture_output=True,
        text=True)
    return [line for line in out.stdout.splitlines() if line]


def walked_files():
    files = []
    for directory, dirs, names in os.walk(REPO):
        rel = Path(directory).relative_to(REPO)
        dirs[:] = sorted(
            d for d in dirs
            if d not in UNTRACKED_DIRS
            and not (rel == Path(".") and UNTRACKED_TOP_DIRS.match(d)))
        files.extend((rel / name).as_posix() for name in sorted(names))
    return files


def expected_guard(path):
    """src/tensor/debug.h -> HYGNN_TENSOR_DEBUG_H_ ; tests/gradcheck.h ->
    HYGNN_TESTS_GRADCHECK_H_ (the src/ prefix is dropped, others kept)."""
    parts = Path(path).parts
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"\.h$", "", stem)
    stem = re.sub(r"[^A-Za-z0-9]", "_", stem).upper()
    return f"HYGNN_{stem}_H_"


def check_include_guard(path, text, problems):
    guard = expected_guard(path)
    lines = text.splitlines()
    head = [ln for ln in lines[:10] if ln.strip()]
    ifndef = next((ln for ln in head if ln.startswith("#ifndef")), None)
    define = next((ln for ln in head if ln.startswith("#define")), None)
    if ifndef is None or define is None:
        problems.append(f"{path}: missing include guard (expected {guard})")
        return
    if ifndef.split()[1] != guard or define.split()[1] != guard:
        problems.append(
            f"{path}: include guard {ifndef.split()[1]} does not match "
            f"path (expected {guard})")
    if not any(guard in ln for ln in lines[-3:] if ln.strip()):
        problems.append(f"{path}: closing #endif not annotated with {guard}")


def check_using_namespace(path, text, problems):
    for i, line in enumerate(text.splitlines(), 1):
        code = LINE_COMMENT.sub("", line)
        if USING_NAMESPACE.search(code):
            problems.append(
                f"{path}:{i}: `using namespace` in a header leaks into "
                "every includer")


def check_raw_assert(path, text, problems):
    for i, line in enumerate(text.splitlines(), 1):
        code = LINE_COMMENT.sub("", line).replace("static_assert", "")
        if RAW_ASSERT.search(code):
            problems.append(
                f"{path}:{i}: raw assert() — use HYGNN_CHECK (always on) "
                "or HYGNN_DCHECK (debug only)")


def check_no_raw_loops(path, text, problems):
    """The recording layer (ops.cc, loss.cc) must contain zero numeric
    loops — every for/while is compute that belongs in tensor/kernels/."""
    in_block_comment = False
    for i, line in enumerate(text.splitlines(), 1):
        code = line
        if in_block_comment:
            end = code.find("*/")
            if end < 0:
                continue
            code = code[end + 2:]
            in_block_comment = False
        while "/*" in code:
            start = code.find("/*")
            end = code.find("*/", start + 2)
            if end < 0:
                code = code[:start]
                in_block_comment = True
                break
            code = code[:start] + code[end + 2:]
        code = LINE_COMMENT.sub("", code)
        if RAW_LOOP.search(code):
            problems.append(
                f"{path}:{i}: raw loop in the recording layer — move the "
                "compute into src/tensor/kernels/ and let the executor "
                "call it")


def check_no_kernel_calls(path, text, problems):
    """Rule 13: the op layer records tape nodes; it never dispatches to
    the kernel layer itself (that is the tape executor's job)."""
    in_block_comment = False
    for i, line in enumerate(text.splitlines(), 1):
        code = line
        if in_block_comment:
            end = code.find("*/")
            if end < 0:
                continue
            code = code[end + 2:]
            in_block_comment = False
        while "/*" in code:
            start = code.find("/*")
            end = code.find("*/", start + 2)
            if end < 0:
                code = code[:start]
                in_block_comment = True
                break
            code = code[:start] + code[end + 2:]
        code = LINE_COMMENT.sub("", code)
        if RAW_KERNEL_CALL.search(code):
            problems.append(
                f"{path}:{i}: [rule 13] direct kernel invocation in the "
                "op layer — record a tape node (tensor/tape.h) and let "
                "the executor dispatch it")


def check_no_raw_file_streams(path, text, problems):
    for i, line in enumerate(text.splitlines(), 1):
        code = LINE_COMMENT.sub("", line)
        if RAW_FILE_STREAM.search(code):
            problems.append(
                f"{path}:{i}: raw std::fstream I/O — use core::FileSystem "
                "(src/core/fs.h) so durable writes and fault injection "
                "cover this path")


def discipline_rules_for(path):
    """The subset of DISCIPLINE_RULES that applies to `path`."""
    return [
        rule for rule in DISCIPLINE_RULES
        if path.startswith(tuple(rule["scope"]))
        and not path.startswith(tuple(rule["exempt"]))
    ]


def check_discipline(path, text, problems):
    """Rules 9-12 and 14: confined nondeterminism / concurrency
    primitives and the one grouping."""
    rules = discipline_rules_for(path)
    if not rules:
        return
    for i, line in enumerate(text.splitlines(), 1):
        code = LINE_COMMENT.sub("", line)
        for rule in rules:
            if rule["pattern"].search(code):
                problems.append(
                    f"{path}:{i}: [rule {rule['rule']}] {rule['message']}")


CMAKE_LISTED_DIRS = ("src", "tests", "bench", "examples")


def check_cmake_listing(files, problems):
    cmake_cache = {}
    for path in files:
        p = Path(path)
        if (p.suffix not in (".cc", ".cpp")
                or p.parts[0] not in CMAKE_LISTED_DIRS):
            continue
        cmake = p.parent / "CMakeLists.txt"
        if str(cmake) not in cmake_cache:
            full = REPO / cmake
            cmake_cache[str(cmake)] = (
                full.read_text() if full.exists() else None)
        text = cmake_cache[str(cmake)]
        if text is None:
            problems.append(f"{path}: no {cmake} to register it in")
        elif not (
                re.search(rf"\b{re.escape(p.name)}\b", text)
                or re.search(
                    rf"\bhygnn_add_(test|bench|example)\(\s*"
                    rf"{re.escape(p.stem)}\s*\)", text)):
            problems.append(f"{path}: not listed in {cmake}")


def check_build_artifacts(files, problems):
    for path in files:
        if any(pat.search(path) for pat in BUILD_ARTIFACT_PATTERNS):
            problems.append(
                f"{path}: committed build artifact — remove from git "
                "(build trees are .gitignored)")


def main():
    files = tracked_files()
    problems = []

    check_build_artifacts(files, problems)
    check_cmake_listing(files, problems)

    for path in files:
        p = Path(path)
        if p.parts[0] not in ("src", "tests", "bench", "examples"):
            continue
        if p.suffix not in (".h", ".cc", ".cpp"):
            continue
        text = (REPO / p).read_text(encoding="utf-8", errors="replace")
        if p.suffix == ".h":
            check_include_guard(path, text, problems)
            check_using_namespace(path, text, problems)
        if p.parts[0] == "src":
            check_raw_assert(path, text, problems)
        if path in NO_LOOP_FILES:
            check_no_raw_loops(path, text, problems)
        if path in NO_KERNEL_CALL_FILES:
            check_no_kernel_calls(path, text, problems)
        if path.startswith(NO_RAW_STREAM_DIRS):
            check_no_raw_file_streams(path, text, problems)
        check_discipline(path, text, problems)

    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"lint.py: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"lint.py: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
