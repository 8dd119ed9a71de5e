// Session manifest round-trips: every SessionSpec field survives
// save + load bit-exactly, malformed files are typed errors (never
// guesses), and the directory sweep lists exactly the surviving manifests.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "serve/session_manifest.h"
#include "test_dir.h"

namespace veritas {
namespace {

SessionSpec FullSpec() {
  SessionSpec spec;
  spec.id = "sess-7";
  spec.strategy = "qbc";
  spec.model = "truthfinder";
  spec.oracle = "confidence:0.9";
  spec.max_validations = 11;
  spec.batch_size = 2;
  spec.seed = 1234567890123u;
  spec.deadline_ms = 2500;
  spec.budget.max_approx_bytes = 1 << 20;
  spec.budget.max_rounds_per_run = 4;
  spec.flaky_plan = "prob=0.25,kind=timeout";
  spec.retries = 3;
  spec.stall_seconds = 1.5;
  spec.use_delta_fusion = false;
  spec.recovery_attempts = 2;
  return spec;
}

TEST(SessionManifestTest, RoundTripsEveryField) {
  const std::string path = TestPath("veritas_manifest_roundtrip.session");
  const SessionSpec spec = FullSpec();
  ASSERT_TRUE(SaveSessionManifest(spec, path).ok());
  auto loaded = LoadSessionManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->id, spec.id);
  EXPECT_EQ(loaded->strategy, spec.strategy);
  EXPECT_EQ(loaded->model, spec.model);
  EXPECT_EQ(loaded->oracle, spec.oracle);
  EXPECT_EQ(loaded->max_validations, spec.max_validations);
  EXPECT_EQ(loaded->batch_size, spec.batch_size);
  EXPECT_EQ(loaded->seed, spec.seed);
  EXPECT_EQ(loaded->deadline_ms, spec.deadline_ms);
  EXPECT_EQ(loaded->budget.max_approx_bytes, spec.budget.max_approx_bytes);
  EXPECT_EQ(loaded->budget.max_rounds_per_run,
            spec.budget.max_rounds_per_run);
  EXPECT_EQ(loaded->flaky_plan, spec.flaky_plan);
  EXPECT_EQ(loaded->retries, spec.retries);
  EXPECT_EQ(loaded->stall_seconds, spec.stall_seconds);
  EXPECT_EQ(loaded->use_delta_fusion, spec.use_delta_fusion);
  EXPECT_EQ(loaded->recovery_attempts, spec.recovery_attempts);
  std::remove(path.c_str());
}

TEST(SessionManifestTest, EmptyStringsRoundTrip) {
  const std::string path = TestPath("veritas_manifest_empty.session");
  SessionSpec spec;
  spec.id = "plain";
  spec.flaky_plan = "";
  ASSERT_TRUE(SaveSessionManifest(spec, path).ok());
  auto loaded = LoadSessionManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->flaky_plan, "");
  std::remove(path.c_str());
}

TEST(SessionManifestTest, MissingFileIsNotFound) {
  auto loaded = LoadSessionManifest(TestPath("veritas_no_such.session"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SessionManifestTest, TruncatedManifestIsInvalid) {
  const std::string path = TestPath("veritas_manifest_trunc.session");
  ASSERT_TRUE(SaveSessionManifest(FullSpec(), path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::trunc);
  out << content.substr(0, content.size() / 2);
  out.close();
  auto loaded = LoadSessionManifest(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SessionManifestTest, BadHeaderIsInvalid) {
  const std::string path = TestPath("veritas_manifest_header.session");
  std::ofstream out(path, std::ios::trunc);
  out << "not-a-manifest v9\nend\n";
  out.close();
  auto loaded = LoadSessionManifest(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SessionManifestTest, ValidatesSessionIds) {
  EXPECT_EQ(ValidateSessionId("ok-id_1.a"), "");
  EXPECT_NE(ValidateSessionId(""), "");
  EXPECT_NE(ValidateSessionId("has space"), "");
  EXPECT_NE(ValidateSessionId("has\ttab"), "");
  EXPECT_NE(ValidateSessionId("a/b"), "");
  EXPECT_NE(ValidateSessionId("a\\b"), "");
  EXPECT_NE(ValidateSessionId(".hidden"), "");
}

TEST(SessionManifestTest, ListsOnlyManifestsSorted) {
  const std::string dir = TestPath("veritas_manifest_list_dir");
  std::remove((dir + "/b.session").c_str());
  std::remove((dir + "/a.session").c_str());
  std::remove((dir + "/a.ckpt").c_str());
  ::rmdir(dir.c_str());
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  SessionSpec spec;
  spec.id = "b";
  ASSERT_TRUE(SaveSessionManifest(spec, dir + "/b.session").ok());
  spec.id = "a";
  ASSERT_TRUE(SaveSessionManifest(spec, dir + "/a.session").ok());
  std::ofstream(dir + "/a.ckpt") << "not a manifest";
  auto ids = ListSessionManifests(dir);
  ASSERT_TRUE(ids.ok()) << ids.status();
  ASSERT_EQ(ids->size(), 2u);
  EXPECT_EQ((*ids)[0], "a");
  EXPECT_EQ((*ids)[1], "b");
}

TEST(SessionManifestTest, PathsAreDerivedFromIds) {
  EXPECT_EQ(SessionManifestPath("/tmp/d", "x"), "/tmp/d/x.session");
  EXPECT_EQ(SessionCheckpointPath("/tmp/d", "x"), "/tmp/d/x.ckpt");
}

TEST(SessionManifestTest, RemovesOnlyDeadWritersTempFiles) {
  const std::string dir = TestPath("veritas_manifest_janitor_dir");
  if (DIR* d = ::opendir(dir.c_str())) {  // Residue from a previous run.
    while (struct dirent* entry = ::readdir(d)) {
      ::unlink((dir + "/" + entry->d_name).c_str());
    }
    ::closedir(d);
    ::rmdir(dir.c_str());
  }
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  const auto touch = [&](const std::string& name) {
    std::ofstream(dir + "/" + name) << "x";
  };
  // A pid far above any kernel pid_max: guaranteed-dead writer.
  touch("s1.ckpt.tmp.2147483647.5");
  // Our own pid: a writer that is, by construction, alive.
  const std::string ours =
      "s2.ckpt.tmp." + std::to_string(::getpid()) + ".9";
  touch(ours);
  // Names that do not parse as <final>.tmp.<pid>.<serial>: not ours.
  touch("s3.ckpt.tmp.notapid.1");
  touch("s4.ckpt.tmp.12");
  // No ".tmp." at all: untouched.
  touch("s5.session");

  EXPECT_EQ(RemoveOrphanTempFiles(dir), 1u);
  const auto exists = [&](const std::string& name) {
    struct stat st;
    return ::stat((dir + "/" + name).c_str(), &st) == 0;
  };
  EXPECT_FALSE(exists("s1.ckpt.tmp.2147483647.5"));
  EXPECT_TRUE(exists(ours));
  EXPECT_TRUE(exists("s3.ckpt.tmp.notapid.1"));
  EXPECT_TRUE(exists("s4.ckpt.tmp.12"));
  EXPECT_TRUE(exists("s5.session"));
  // A second sweep finds nothing new.
  EXPECT_EQ(RemoveOrphanTempFiles(dir), 0u);
}

}  // namespace
}  // namespace veritas
