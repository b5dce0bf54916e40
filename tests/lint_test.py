#!/usr/bin/env python3
"""Self-test for the repo linters (scripts/lint.py, scripts/tidy.py).

Each convention rule 1-14 (8 is retired) is exercised both ways: a
deliberately violating fixture must fire it, and a conforming fixture
must stay quiet. This is what keeps the gate honest — a regex edit that silently
stops matching breaks THIS test instead of silently un-gating the repo.

Run directly (python3 tests/lint_test.py) or via ctest (lint_test).
"""

import contextlib
import importlib.util
import io
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load(name, root=REPO):
    spec = importlib.util.spec_from_file_location(
        name, root / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lint = load("lint")
tidy = load("tidy")


def problems_of(check, path, text):
    problems = []
    check(path, text, problems)
    return problems


class IncludeGuardTest(unittest.TestCase):  # rule 1
    GOOD = ("#ifndef HYGNN_TENSOR_FOO_H_\n"
            "#define HYGNN_TENSOR_FOO_H_\n"
            "int x;\n"
            "#endif  // HYGNN_TENSOR_FOO_H_\n")

    def test_fires_on_mismatched_guard(self):
        bad = self.GOOD.replace("HYGNN_TENSOR_FOO_H_", "HYGNN_WRONG_H_")
        self.assertTrue(
            problems_of(lint.check_include_guard, "src/tensor/foo.h", bad))

    def test_fires_on_missing_guard(self):
        self.assertTrue(problems_of(
            lint.check_include_guard, "src/tensor/foo.h", "int x;\n"))

    def test_quiet_on_matching_guard(self):
        self.assertEqual([], problems_of(
            lint.check_include_guard, "src/tensor/foo.h", self.GOOD))


class UsingNamespaceTest(unittest.TestCase):  # rule 2
    def test_fires_in_header(self):
        self.assertTrue(problems_of(
            lint.check_using_namespace, "src/a.h",
            "using namespace std;\n"))

    def test_quiet_on_comment_and_alias(self):
        clean = ("// using namespace std; (docs only)\n"
                 "namespace t = hygnn::tensor;\n")
        self.assertEqual([], problems_of(
            lint.check_using_namespace, "src/a.h", clean))


class CmakeListingTest(unittest.TestCase):  # rule 3
    def run_check(self, cmake_text):
        problems = []
        original = lint.REPO
        with tempfile.TemporaryDirectory() as tmp:
            lint.REPO = Path(tmp)
            try:
                d = Path(tmp) / "src" / "foo"
                d.mkdir(parents=True)
                if cmake_text is not None:
                    (d / "CMakeLists.txt").write_text(cmake_text)
                lint.check_cmake_listing(["src/foo/bar.cc"], problems)
            finally:
                lint.REPO = original
        return problems

    def test_fires_on_unlisted_source(self):
        self.assertTrue(self.run_check("add_library(foo other.cc)\n"))

    def test_fires_on_missing_cmakelists(self):
        self.assertTrue(self.run_check(None))

    def test_quiet_on_listed_source(self):
        self.assertEqual([], self.run_check("add_library(foo bar.cc)\n"))


class RawAssertTest(unittest.TestCase):  # rule 4
    def test_fires_on_raw_assert(self):
        self.assertTrue(problems_of(
            lint.check_raw_assert, "src/a.cc", "assert(x > 0);\n"))

    def test_quiet_on_static_assert_and_check(self):
        clean = ("static_assert(sizeof(int) == 4);\n"
                 "HYGNN_CHECK(x > 0) << x;\n")
        self.assertEqual([], problems_of(
            lint.check_raw_assert, "src/a.cc", clean))


class BuildArtifactTest(unittest.TestCase):  # rule 5
    def run_check(self, files):
        problems = []
        lint.check_build_artifacts(files, problems)
        return problems

    def test_fires_on_build_tree_and_objects(self):
        for path in ("build/CMakeCache.txt", "build-tsan/x.ninja",
                     "src/core/rng.o", "compile_commands.json"):
            self.assertTrue(self.run_check([path]), path)

    def test_quiet_on_sources(self):
        self.assertEqual([], self.run_check(
            ["src/core/rng.cc", "CMakeLists.txt", "scripts/check.sh"]))


class NoRawLoopsTest(unittest.TestCase):  # rule 6
    def test_fires_on_loop(self):
        self.assertTrue(problems_of(
            lint.check_no_raw_loops, "src/tensor/ops.cc",
            "for (int i = 0; i < n; ++i) out[i] = a[i] + b[i];\n"))

    def test_quiet_on_commented_loop(self):
        clean = ("// for (each row) delegate to kernels::Add\n"
                 "/* while (unported) { } */\n"
                 "kernels::Add(a, b, out);\n")
        self.assertEqual([], problems_of(
            lint.check_no_raw_loops, "src/tensor/ops.cc", clean))

    def test_covers_the_recording_files(self):
        self.assertEqual({"src/tensor/ops.cc", "src/tensor/loss.cc"},
                         lint.NO_LOOP_FILES)

    def test_fires_on_validation_loop_in_loss_cc(self):
        self.assertTrue(problems_of(
            lint.check_no_raw_loops, "src/tensor/loss.cc",
            "for (int32_t label : labels) HYGNN_CHECK(label < k);\n"))

    def test_repo_loss_cc_is_clean(self):
        text = (lint.REPO / "src/tensor/loss.cc").read_text(encoding="utf-8")
        self.assertEqual([], problems_of(
            lint.check_no_raw_loops, "src/tensor/loss.cc", text))


class NoKernelCallsTest(unittest.TestCase):  # rule 13
    def test_fires_on_kernel_call(self):
        self.assertTrue(problems_of(
            lint.check_no_kernel_calls, "src/tensor/ops.cc",
            "kernels::Add(a, b, out, total);\n"))

    def test_fires_on_kernel_include(self):
        self.assertTrue(problems_of(
            lint.check_no_kernel_calls, "src/tensor/ops.cc",
            "#include \"tensor/kernels/kernels.h\"\n"))

    def test_quiet_on_recording_and_comments(self):
        clean = ("// the executor calls kernels::Add for this node\n"
                 "/* was: kernels::MulAccumulate(...) */\n"
                 "auto out = RecordOp(\"Add\", OpKind::kAdd, rows, cols,\n"
                 "                    {a.impl(), b.impl()});\n"
                 "return FinishRecord(std::move(out));\n")
        self.assertEqual([], problems_of(
            lint.check_no_kernel_calls, "src/tensor/ops.cc", clean))

    def test_repo_ops_cc_is_clean(self):
        text = (lint.REPO / "src/tensor/ops.cc").read_text(encoding="utf-8")
        self.assertEqual([], problems_of(
            lint.check_no_kernel_calls, "src/tensor/ops.cc", text))

    def test_covers_the_recording_files(self):
        self.assertEqual({"src/tensor/ops.cc", "src/tensor/loss.cc"},
                         lint.NO_KERNEL_CALL_FILES)

    def test_fires_on_kernel_call_in_loss_cc(self):
        self.assertTrue(problems_of(
            lint.check_no_kernel_calls, "src/tensor/loss.cc",
            "out->data[0] = kernels::BceWithLogits(z, y, n);\n"))

    def test_repo_loss_cc_is_clean(self):
        text = (lint.REPO / "src/tensor/loss.cc").read_text(encoding="utf-8")
        self.assertEqual([], problems_of(
            lint.check_no_kernel_calls, "src/tensor/loss.cc", text))


class RawFileStreamTest(unittest.TestCase):  # rule 7
    def test_fires_on_ofstream(self):
        self.assertTrue(problems_of(
            lint.check_no_raw_file_streams, "src/serve/a.cc",
            "std::ofstream out(path);\n"))

    def test_fires_on_fstream_include(self):
        self.assertTrue(problems_of(
            lint.check_no_raw_file_streams, "src/data/b.cc",
            "#include <fstream>\n"))

    def test_quiet_on_filesystem_api(self):
        self.assertEqual([], problems_of(
            lint.check_no_raw_file_streams, "src/serve/a.cc",
            "auto st = fs->WriteFileDurable(path, bytes);\n"))


class DisciplineRuleTest(unittest.TestCase):
    """Rules 9-12 and 14 share check_discipline; assert each fires in
    scope, stays quiet in its sanctioned home, and ignores out-of-scope
    files."""

    def rules_fired(self, path, text):
        return sorted({
            int(p.split("[rule ")[1].split("]")[0])
            for p in problems_of(lint.check_discipline, path, text)
        })

    # -- rule 9: ad-hoc RNG ------------------------------------------
    def test_rule9_fires_on_mt19937_rand_random_device(self):
        for snippet in ("std::mt19937 gen(42);\n",
                        "int x = rand() % n;\n",
                        "srand(1234);\n",
                        "std::random_device rd;\n"):
            self.assertEqual([9], self.rules_fired("src/hygnn/a.cc", snippet),
                             snippet)

    def test_rule9_quiet_in_core_rng_and_tests(self):
        self.assertEqual([], self.rules_fired(
            "src/core/rng.cc", "std::mt19937 reference(seed);\n"))
        self.assertEqual([], self.rules_fired(
            "tests/rng_test.cc", "std::mt19937 reference(seed);\n"))

    def test_rule9_quiet_on_identifiers_containing_rand(self):
        self.assertEqual([], self.rules_fired(
            "src/hygnn/a.cc", "float operand = Operand(x);\n"))

    # -- rule 10: clocks ---------------------------------------------
    def test_rule10_fires_on_wall_clocks_everywhere(self):
        for path in ("src/obs/metrics.cc", "src/core/clock.cc",
                     "bench/b.cc", "examples/e.cc"):
            self.assertEqual(
                [10],
                self.rules_fired(
                    path, "auto t = std::chrono::system_clock::now();\n"),
                path)
        self.assertEqual([10], self.rules_fired(
            "src/hygnn/a.cc",
            "using clock = std::chrono::high_resolution_clock;\n"))

    def test_rule10_fires_on_steady_clock_outside_clock_cc(self):
        # src/core/clock.cc is the only exemption: obs, the rest of core,
        # benches and examples all time through obs::NowNanos.
        for path in ("src/tensor/a.cc", "src/obs/optime.cc",
                     "src/obs/metrics.h", "src/core/fs.cc",
                     "bench/bench_micro_ops.cc", "examples/e.cc"):
            self.assertEqual([10], self.rules_fired(
                path, "auto t = std::chrono::steady_clock::now();\n"), path)

    def test_rule10_clock_seam_backend_is_sanctioned(self):
        # The core::Clock seam (src/core/clock.cc) owns the one raw
        # steady_clock read behind MonotonicClock(); the same line in a
        # consumer would defeat the seam and must still fire.
        snippet = ("return std::chrono::duration_cast<std::chrono::"
                   "nanoseconds>(std::chrono::steady_clock::now()"
                   ".time_since_epoch()).count();\n")
        self.assertEqual([], self.rules_fired("src/core/clock.cc", snippet))
        self.assertEqual([10], self.rules_fired("src/serve/server.cc",
                                                snippet))

    def test_rule10_quiet_on_clock_seam_consumers(self):
        # Deadline code reads time through the seam, which mentions no
        # std::chrono clock at all: rule 10 has nothing to match.
        self.assertEqual([], self.rules_fired(
            "src/serve/server.cc",
            "const uint64_t now_nanos = clock_->NowNanos();\n"
            "core::ManualClock manual;\n"))

    # -- rule 11: raw threads ----------------------------------------
    def test_rule11_fires_on_std_thread_and_detach(self):
        self.assertEqual([11], self.rules_fired(
            "src/serve/a.cc", "std::thread worker(Run);\n"))
        self.assertEqual([11], self.rules_fired(
            "src/serve/a.cc", "worker.detach();\n"))

    def test_rule11_quiet_in_thread_pool(self):
        self.assertEqual([], self.rules_fired(
            "src/core/thread_pool.cc", "threads_.emplace_back(std::thread(\n"))

    def test_rule11_quiet_on_parallel_for(self):
        self.assertEqual([], self.rules_fired(
            "src/serve/a.cc", "core::ParallelFor(0, n, grain, fn);\n"))

    # -- rule 12: bare mutexes ---------------------------------------
    def test_rule12_fires_on_each_primitive(self):
        for snippet in ("std::mutex mu;\n",
                        "std::lock_guard<std::mutex> lock(mu);\n",
                        "std::unique_lock<std::mutex> lock(mu);\n",
                        "std::condition_variable cv;\n",
                        "std::shared_mutex rw;\n",
                        "std::scoped_lock lock(a, b);\n"):
            fired = self.rules_fired("src/obs/a.cc", snippet)
            self.assertIn(12, fired, snippet)

    def test_rule12_quiet_in_core_and_on_wrappers(self):
        self.assertEqual([], self.rules_fired(
            "src/core/mutex.cc",
            "std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);\n"))
        self.assertEqual([], self.rules_fired(
            "src/obs/a.cc", "core::MutexLock lock(mutex_);\n"))

    # -- rule 14: the counting sort ----------------------------------
    def test_rule14_fires_on_count_steps_outside_csr_cc(self):
        for path, snippet in (
                ("src/tensor/kernels/segment.cc",
                 "for (int64_t i = 0; i < n; ++i) ++offsets[seg[i] + 1];\n"),
                ("src/tensor/sparse.cc",
                 "++m->row_ptr_[static_cast<size_t>(row) + 1];\n"),
                ("src/chem/molgraph.cc",
                 "incidence_offsets_[static_cast<size_t>(bond.a) + 1]++;\n"),
                ("bench/b.cc", "++groups.offsets[key + 1];\n"),
                ("examples/e.cc", "++counts[k + 1];\n")):
            self.assertEqual([14], self.rules_fired(path, snippet), path)

    def test_rule14_quiet_in_csr_cc(self):
        self.assertEqual([], self.rules_fired(
            "src/core/csr.cc", "++offsets[seg[i] + 1];\n"))

    def test_rule14_quiet_on_groupby_and_plain_increments(self):
        self.assertEqual([], self.rules_fired(
            "src/tensor/kernels/segment.cc",
            "groups.GroupBy({seg, static_cast<size_t>(n)}, num_segments);\n"
            "for (int64_t r = 0; r < rows; ++r) offsets[r + 1] += x;\n"
            "++count[key];\n"
            "overlap[key]++;\n"))

    # -- shared scoping behavior -------------------------------------
    def test_out_of_scope_paths_ignored(self):
        everything = ("std::mt19937 g;\n"
                      "std::chrono::system_clock::now();\n"
                      "std::thread t;\n"
                      "std::mutex mu;\n"
                      "++offsets[key + 1];\n")
        for path in ("tests/a_test.cc", "scripts/gen.cc", "docs/x.cc"):
            self.assertEqual([], self.rules_fired(path, everything), path)

    def test_comments_ignored(self):
        self.assertEqual([], self.rules_fired(
            "src/hygnn/a.cc", "// replaced std::mt19937 with core::Rng\n"))

    def test_repo_sources_are_clean(self):
        """Every tracked source passes rules 9-12 and 14 right now — the
        gate starts from zero debt."""
        problems = []
        for path in lint.tracked_files():
            p = Path(path)
            if p.suffix not in (".h", ".cc", ".cpp"):
                continue
            text = (lint.REPO / p).read_text(encoding="utf-8",
                                             errors="replace")
            lint.check_discipline(path, text, problems)
        self.assertEqual([], problems)


class TrackedFilesTest(unittest.TestCase):
    def test_walks_a_copy_outside_git(self):
        """In a copy of the sources with no .git, lint walks the tree
        instead: it skips the top-level build trees, .bench_build and
        __pycache__, keeps a deeper directory named build*, lints the
        same files, and finds them clean."""
        tracked = sorted(lint.tracked_files())
        kept = "src/builders/notes.txt"
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "export"
            for path in tracked + [kept]:
                (root / path).parent.mkdir(parents=True, exist_ok=True)
                if path == kept:
                    (root / path).write_text("")
                else:
                    shutil.copyfile(REPO / path, root / path)
            for junk in ("build/CMakeCache.txt", "build-tsan/tests/a.o",
                         "cmake-build-debug/b.o",
                         ".bench_build/perfbench/CMakeFiles/c.o",
                         "src/core/__pycache__/d.pyc"):
                (root / junk).parent.mkdir(parents=True, exist_ok=True)
                (root / junk).write_text("")
            copy = load("lint", root)
            self.assertEqual(sorted(tracked + [kept]),
                             sorted(copy.tracked_files()))
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(0, copy.main())

    def test_git_failure_in_a_work_tree_raises(self):
        """A root that holds a .git is linted through git alone: when git
        fails there, lint fails instead of walking the tree."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "scripts").mkdir()
            shutil.copyfile(REPO / "scripts" / "lint.py",
                            root / "scripts" / "lint.py")
            (root / ".git").write_text(f"gitdir: {root / 'missing'}\n")
            copy = load("lint", root)
            with self.assertRaises(subprocess.CalledProcessError):
                copy.tracked_files()


class TidyGateTest(unittest.TestCase):
    """Baseline arithmetic of scripts/tidy.py, with synthetic findings
    (no clang-tidy needed)."""

    FINDINGS = {
        ("src/a.cc", "bugprone-x"): ["src/a.cc:1:1: msg [bugprone-x]",
                                     "src/a.cc:9:1: msg [bugprone-x]"],
        ("src/b.cc", "performance-y"): ["src/b.cc:3:1: msg [performance-y]"],
    }

    def test_new_finding_fails(self):
        new, stale = tidy.gate(self.FINDINGS, {})
        self.assertTrue(new)
        self.assertEqual([], stale)

    def test_baselined_findings_pass(self):
        baseline = {"src/a.cc|bugprone-x": 2, "src/b.cc|performance-y": 1}
        new, stale = tidy.gate(self.FINDINGS, baseline)
        self.assertEqual([], new)
        self.assertEqual([], stale)

    def test_count_increase_fails(self):
        baseline = {"src/a.cc|bugprone-x": 1, "src/b.cc|performance-y": 1}
        new, stale = tidy.gate(self.FINDINGS, baseline)
        self.assertTrue(new)
        self.assertIn("src/a.cc|bugprone-x", new[0])

    def test_paid_down_debt_is_stale_not_failing(self):
        baseline = {"src/a.cc|bugprone-x": 5, "src/b.cc|performance-y": 1,
                    "src/gone.cc|bugprone-z": 3}
        new, stale = tidy.gate(self.FINDINGS, baseline)
        self.assertEqual([], new)
        self.assertEqual(
            ["src/a.cc|bugprone-x", "src/gone.cc|bugprone-z"], stale)

    def test_finding_regex_parses_clang_tidy_line(self):
        line = ("/root/repo/src/core/rng.cc:42:7: warning: use of undeclared "
                "thing is bad [bugprone-use-after-move]")
        match = tidy.FINDING.match(line)
        self.assertIsNotNone(match)
        self.assertEqual("42", match.group("line"))
        self.assertEqual("bugprone-use-after-move", match.group("check"))

    def test_checked_in_baseline_parses(self):
        baseline = tidy.load_baseline()
        self.assertIsInstance(baseline, dict)
        for key, count in baseline.items():
            self.assertIn("|", key)
            self.assertIsInstance(count, int)


if __name__ == "__main__":
    result = unittest.main(exit=False, verbosity=1).result
    sys.exit(0 if result.wasSuccessful() else 1)
