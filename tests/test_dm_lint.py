#!/usr/bin/env python3
"""Unit tests for tools/dm_lint.py.

Each test builds a tiny fake repository in a temp directory (the checks
key off repo-relative paths like src/storage/buffer_pool.cc) and runs
the importable lint_files() entry point on known-good and
seeded-violation snippets. Registered in ctest as test_dm_lint.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "tools"),
)

import dm_lint  # noqa: E402


class LintCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def lint(self, *paths):
        return dm_lint.lint_files(list(paths), self.root)

    def checks(self, findings):
        return [(f.check, f.line) for f in findings]


class DroppedStatusTest(LintCase):
    HEADER = "struct Status {};\nStatus SaveThing(int v);\n"

    def test_bare_call_flagged(self):
        h = self.write("src/x/x.h", self.HEADER)
        cc = self.write(
            "src/x/x.cc",
            "void F() {\n  SaveThing(1);\n}\n",
        )
        findings = self.lint(h, cc)
        self.assertEqual(self.checks(findings), [("dropped-status", 2)])

    def test_consumed_calls_clean(self):
        h = self.write("src/x/x.h", self.HEADER)
        cc = self.write(
            "src/x/x.cc",
            "Status G() {\n"
            "  auto st = SaveThing(1);\n"
            "  if (!SaveThing(2).ok()) return st;\n"
            "  (void)SaveThing(3);\n"
            "  return SaveThing(4);\n"
            "}\n",
        )
        self.assertEqual(self.lint(h, cc), [])

    def test_test_code_exempt(self):
        h = self.write("src/x/x.h", self.HEADER)
        cc = self.write("tests/test_x.cc", "void F() {\n  SaveThing(1);\n}\n")
        self.assertEqual(self.lint(h, cc), [])

    def test_ambiguous_name_skipped(self):
        # Insert returns Status in one class and void in another; a
        # name-based check cannot tell call sites apart, so it must
        # stay silent rather than false-positive.
        h = self.write(
            "src/x/x.h",
            "struct Status {};\nStatus Insert(int v);\nvoid Insert(long v);\n",
        )
        cc = self.write("src/x/x.cc", "void F() {\n  Insert(1);\n}\n")
        self.assertEqual(self.lint(h, cc), [])

    def test_wrapped_call_flagged(self):
        h = self.write("src/x/x.h", self.HEADER)
        cc = self.write(
            "src/x/x.cc",
            "void F() {\n  SaveThing(\n      42);\n}\n",
        )
        findings = self.lint(h, cc)
        self.assertEqual(self.checks(findings), [("dropped-status", 2)])


class HotPathAllocTest(LintCase):
    def test_alloc_in_hot_file_flagged(self):
        cc = self.write(
            "src/storage/buffer_pool.cc",
            "void F() {\n  auto p = std::make_unique<int>(1);\n}\n",
        )
        findings = self.lint(cc)
        self.assertEqual(self.checks(findings), [("hot-path-alloc", 2)])

    def test_unordered_map_in_extractor_flagged(self):
        cc = self.write(
            "src/mesh/extract.cc",
            "std::vector<Triangle> ExtractTriangles(const LocalGraph& g) {\n"
            "  std::unordered_map<VertexId, uint32_t> local;\n"
            "  return {};\n"
            "}\n",
        )
        findings = self.lint(cc)
        self.assertEqual(self.checks(findings), [("hot-path-alloc", 2)])

    def test_unordered_map_in_node_cache_flagged(self):
        # Every fetched node probes the decoded-node table; a hash map
        # creeping back into it is a hot-path allocation.
        cc = self.write(
            "src/dm/node_cache.cc",
            "const DmNode* NodeCache::Find(RecordId rid) const {\n"
            "  std::unordered_map<uint64_t, const DmNode*> index;\n"
            "  return nullptr;\n"
            "}\n",
        )
        findings = self.lint(cc)
        self.assertEqual(self.checks(findings), [("hot-path-alloc", 2)])

    def test_other_mesh_file_clean(self):
        cc = self.write(
            "src/mesh/adjacency.cc",
            "void F() {\n  std::unordered_map<int, int> m;\n}\n",
        )
        self.assertEqual(self.lint(cc), [])

    def test_alloc_in_cold_file_clean(self):
        cc = self.write(
            "src/storage/disk_manager.cc",
            "void F() {\n  auto p = std::make_unique<int>(1);\n}\n",
        )
        self.assertEqual(self.lint(cc), [])

    def test_store_fetch_path_only(self):
        cc = self.write(
            "src/dm/dm_store.cc",
            "void DmStore::Open() {\n"
            "  auto a = std::make_shared<int>(1);\n"  # cold: fine
            "}\n"
            "void DmStore::FetchNodes() {\n"
            "  auto b = std::make_shared<int>(2);\n"  # hot: flagged
            "}\n",
        )
        findings = self.lint(cc)
        self.assertEqual(self.checks(findings), [("hot-path-alloc", 5)])

    def test_comment_mention_clean(self):
        cc = self.write(
            "src/dm/dm_query.cc",
            "void F() {\n  // never call new here\n}\n",
        )
        self.assertEqual(self.lint(cc), [])


class RawMutexTest(LintCase):
    def test_std_mutex_flagged(self):
        cc = self.write(
            "src/x/x.cc",
            "#include <mutex>\nstd::mutex mu;\n"
            "void F() {\n  std::lock_guard<std::mutex> l(mu);\n}\n",
        )
        findings = self.lint(cc)
        self.assertEqual(
            self.checks(findings),
            [("raw-mutex", 2), ("raw-mutex", 4)],
        )

    def test_thread_annotations_home_exempt(self):
        h = self.write(
            "src/common/thread_annotations.h",
            "#include <mutex>\nclass Mutex { std::mutex mu_; };\n",
        )
        self.assertEqual(self.lint(h), [])

    def test_string_mention_clean(self):
        cc = self.write(
            "src/x/x.cc",
            'const char* kMsg = "std::mutex is banned";\n',
        )
        self.assertEqual(self.lint(cc), [])


class RawThreadTest(LintCase):
    SPAWN = (
        "#include <thread>\n"
        "void F() {\n"
        "  std::thread t([] {});\n"
        "  t.join();\n"
        "}\n"
    )

    def test_thread_in_storage_flagged(self):
        cc = self.write("src/storage/buffer_pool.cc", self.SPAWN)
        findings = self.lint(cc)
        self.assertEqual(self.checks(findings), [("raw-thread", 3)])

    def test_thread_in_server_clean(self):
        cc = self.write("src/server/query_service.cc", self.SPAWN)
        self.assertEqual(self.lint(cc), [])

    def test_backoff_sleep_in_storage_clean(self):
        # The retry ladder sleeps on the caller's thread; that is not a
        # spawn.
        cc = self.write(
            "src/storage/buffer_pool.cc",
            "#include <thread>\n"
            "void Backoff() {\n"
            "  std::this_thread::sleep_for(std::chrono::microseconds(1));\n"
            "}\n",
        )
        self.assertEqual(self.lint(cc), [])


class PinBalanceTest(LintCase):
    def test_pins_outside_pool_flagged(self):
        cc = self.write(
            "src/dm/dm_store.cc",
            "void DmStore::Hack(Frame& f) {\n  ++f.pins;\n}\n",
        )
        findings = self.lint(cc)
        self.assertEqual(self.checks(findings), [("pin-balance", 2)])

    def test_decrement_outside_unpin_flagged(self):
        cc = self.write(
            "src/storage/buffer_pool.cc",
            "void BufferPool::Unpin(Frame& f) {\n  --f.pins;\n}\n"
            "void BufferPool::Evict(Frame& f) {\n  --f.pins;\n}\n",
        )
        findings = self.lint(cc)
        self.assertEqual(self.checks(findings), [("pin-balance", 5)])

    def test_balanced_pool_clean(self):
        cc = self.write(
            "src/storage/buffer_pool.cc",
            "void BufferPool::Pin(Frame& f) {\n  ++f.pins;\n}\n"
            "void BufferPool::Unpin(Frame& f) {\n  --f.pins;\n}\n",
        )
        self.assertEqual(self.lint(cc), [])


class SuppressionTest(LintCase):
    def test_justified_allow_suppresses(self):
        cc = self.write(
            "src/dm/dm_query.cc",
            "void F() {\n"
            "  // dm-lint: allow(hot-path-alloc) one-time warmup buffer\n"
            "  auto p = std::make_unique<int>(1);\n"
            "}\n",
        )
        self.assertEqual(self.lint(cc), [])

    def test_allow_above_wrapped_statement_suppresses(self):
        cc = self.write(
            "src/dm/dm_query.cc",
            "void F() {\n"
            "  // dm-lint: allow(hot-path-alloc) one-time warmup buffer\n"
            "  auto p =\n"
            "      std::make_unique<int>(1);\n"
            "}\n",
        )
        self.assertEqual(self.lint(cc), [])

    def test_unjustified_allow_reported(self):
        cc = self.write(
            "src/dm/dm_query.cc",
            "void F() {\n"
            "  // dm-lint: allow(hot-path-alloc)\n"
            "  auto p = std::make_unique<int>(1);\n"
            "}\n",
        )
        findings = self.lint(cc)
        self.assertEqual(
            [f.check for f in findings], ["bad-suppression"]
        )

    def test_wrong_check_allow_reported(self):
        cc = self.write(
            "src/dm/dm_query.cc",
            "void F() {\n"
            "  // dm-lint: allow(raw-mutex) not even the right check\n"
            "  auto p = std::make_unique<int>(1);\n"
            "}\n",
        )
        findings = self.lint(cc)
        self.assertEqual(
            sorted(f.check for f in findings),
            ["bad-suppression", "hot-path-alloc"],
        )

    def test_allow_does_not_leak_past_statement(self):
        # A suppression above an unrelated earlier statement must not
        # cover a later finding.
        cc = self.write(
            "src/dm/dm_query.cc",
            "void F() {\n"
            "  // dm-lint: allow(hot-path-alloc) covers only the next line\n"
            "  int unrelated = 0;\n"
            "  auto p = std::make_unique<int>(unrelated);\n"
            "}\n",
        )
        findings = self.lint(cc)
        self.assertEqual(self.checks(findings), [("hot-path-alloc", 4)])


class KnownGoodTreeTest(unittest.TestCase):
    def test_real_tree_is_clean(self):
        """The lint must exit clean on the repository itself — the same
        invariant CI enforces, kept here so a local ctest run catches a
        violation before push."""
        repo_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        paths = []
        for sub in ("src", "tools"):
            for dirpath, _dirs, files in os.walk(
                os.path.join(repo_root, sub)
            ):
                for name in files:
                    if name.endswith((".h", ".cc")):
                        paths.append(os.path.join(dirpath, name))
        findings = dm_lint.lint_files(sorted(paths), repo_root)
        self.assertEqual(
            [f.render(repo_root) for f in findings], []
        )


if __name__ == "__main__":
    unittest.main()
