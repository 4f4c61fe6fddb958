// harness::Rig: one Attach value decides exactly which sidecars a structure
// gets, and a persist region always brings its own lease table.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/rig.h"
#include "simt/team.h"

namespace gfsl::harness {
namespace {

core::GfslConfig small_cfg() {
  core::GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  return cfg;
}

struct Armed {
  bool leases = false;
  bool epochs = false;
  bool snapshots = false;
  bool foresight = false;
  bool integrity = false;
  bool region = false;
};

Armed armed(const Rig& rig) {
  return {rig.leases() != nullptr,    rig.epochs() != nullptr,
          rig.snapshots() != nullptr, rig.foresight() != nullptr,
          rig.integrity() != nullptr, rig.region() != nullptr};
}

void expect_armed(const Rig& rig, const Armed& want, const char* what) {
  const Armed got = armed(rig);
  EXPECT_EQ(got.leases, want.leases) << what;
  EXPECT_EQ(got.epochs, want.epochs) << what;
  EXPECT_EQ(got.snapshots, want.snapshots) << what;
  EXPECT_EQ(got.foresight, want.foresight) << what;
  EXPECT_EQ(got.integrity, want.integrity) << what;
  EXPECT_EQ(got.region, want.region) << what;
  // The structure sees exactly the sidecars the rig owns.
  const core::Gfsl& sl = rig.gfsl();
  EXPECT_EQ(sl.leases(), rig.leases()) << what;
  EXPECT_EQ(sl.epochs(), rig.epochs()) << what;
  EXPECT_EQ(sl.snapshots(), rig.snapshots()) << what;
  EXPECT_EQ(sl.foresight(), rig.foresight()) << what;
  EXPECT_EQ(sl.integrity(), rig.integrity()) << what;
  EXPECT_EQ(sl.region(), rig.region()) << what;
}

std::string tmp_region(const std::string& name) {
  return testing::TempDir() + "gfsl_rig_" + name + ".region";
}

TEST(Rig, EmptyAttachArmsNothing) {
  Rig rig(small_cfg(), Attach{});
  expect_armed(rig, {}, "Attach{}");
  EXPECT_EQ(rig.epochs(), nullptr);
  EXPECT_EQ(rig.snapshots(), nullptr);
  EXPECT_EQ(rig.foresight(), nullptr);
  EXPECT_EQ(rig.integrity(), nullptr);
}

TEST(Rig, EachFieldArmsExactlyItsOwnAccessor) {
  {
    Rig rig(small_cfg(), Attach{.leases = true});
    expect_armed(rig, {.leases = true}, "leases");
  }
  {
    Rig rig(small_cfg(), Attach{.epochs = true});
    expect_armed(rig, {.epochs = true}, "epochs");
  }
  {
    Rig rig(small_cfg(), Attach{.snapshots = true});
    expect_armed(rig, {.snapshots = true}, "snapshots");
  }
  {
    Rig rig(small_cfg(), Attach{.foresight = true,
                                .foresight_stride = 1,
                                .foresight_rebuild_threshold = 1});
    expect_armed(rig, {.foresight = true}, "foresight");
  }
  for (const auto algo :
       {Attach::Integrity::kCrc32c, Attach::Integrity::kXorFold}) {
    Rig rig(small_cfg(), Attach{.integrity = algo});
    expect_armed(rig, {.integrity = true}, "integrity");
    EXPECT_EQ(rig.integrity()->algo(), algo == Attach::Integrity::kCrc32c
                                           ? core::SealAlgo::kCrc32c
                                           : core::SealAlgo::kXorFold);
  }
  {
    // A persist region always arrives with the lease table bound to it.
    const std::string path = tmp_region("persist_only");
    Rig rig(small_cfg(), Attach{.persist = Attach::Persist{path}});
    expect_armed(rig, {.leases = true, .region = true}, "persist");
    EXPECT_TRUE(rig.region()->fresh());
    std::remove(path.c_str());
  }
}

TEST(Rig, PersistCreateThenAttachRecoversTheSameContents) {
  const std::string path = tmp_region("roundtrip");
  std::vector<std::pair<Key, Value>> before;
  {
    Rig rig(small_cfg(), Attach{.persist = Attach::Persist{path}});
    simt::Team team(8, 0, 1);
    for (Key k = 1; k <= 200; ++k) ASSERT_TRUE(rig->insert(team, k * 3, k));
    for (Key k = 1; k <= 200; k += 7) ASSERT_TRUE(rig->erase(team, k * 3));
    before = rig->collect();
    rig.region()->mark_clean();
  }
  {
    Rig rig(small_cfg(),
            Attach{.persist = Attach::Persist{path, /*adopt=*/true}});
    EXPECT_FALSE(rig.region()->fresh());
    ASSERT_NE(rig.leases(), nullptr);
    const core::RecoveryReport rep = rig->recover();
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rig->collect(), before);
    EXPECT_TRUE(rig->validate(/*strict=*/false).ok);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gfsl::harness
