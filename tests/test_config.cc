/**
 * @file
 * Unit tests for configuration structures and density tables.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "dram/spec.hh"

using namespace dsarp;

TEST(Config, DensityRows)
{
    EXPECT_EQ(rowsPerBankFor(Density::k8Gb), 65536);
    EXPECT_EQ(rowsPerBankFor(Density::k16Gb), 131072);
    EXPECT_EQ(rowsPerBankFor(Density::k32Gb), 262144);
}

TEST(Config, DensityRefreshLatency)
{
    // Paper Table 1, as the DDR3-1333 spec the simulator runs holds it.
    const DramSpec &spec = DramSpecRegistry::instance().at("DDR3-1333");
    EXPECT_DOUBLE_EQ(spec.tRfcAbNsFor(Density::k8Gb).ns(), 350.0);
    EXPECT_DOUBLE_EQ(spec.tRfcAbNsFor(Density::k16Gb).ns(), 530.0);
    EXPECT_DOUBLE_EQ(spec.tRfcAbNsFor(Density::k32Gb).ns(), 890.0);
}

TEST(Config, Names)
{
    EXPECT_STREQ(densityName(Density::k16Gb), "16Gb");
}

TEST(Config, FinalizeAppliesDensity)
{
    MemConfig cfg;
    cfg.density = Density::k16Gb;
    cfg.finalize();
    EXPECT_EQ(cfg.org.rowsPerBank, 131072);
}

TEST(Config, OrgDerived)
{
    MemOrg org;
    EXPECT_EQ(org.columns(), 128);          // 8 KB row / 64 B line.
    EXPECT_EQ(org.rowsPerSubarray(), 8192); // 64K rows / 8 subarrays.
}

TEST(Config, DefaultsMatchTable1)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.numCores, 8);
    EXPECT_EQ(cfg.core.cpuCyclesPerTick, 6);  // 4 GHz over DDR3-1333.
    EXPECT_EQ(cfg.core.windowSize, 128);
    EXPECT_EQ(cfg.core.mshrs, 8);
    EXPECT_EQ(cfg.mem.org.channels, 2);
    EXPECT_EQ(cfg.mem.org.ranksPerChannel, 2);
    EXPECT_EQ(cfg.mem.org.banksPerRank, 8);
    EXPECT_EQ(cfg.mem.org.subarraysPerBank, 8);
    EXPECT_EQ(cfg.mem.readQueueSize, 64);
    EXPECT_EQ(cfg.mem.writeQueueSize, 64);
    EXPECT_EQ(cfg.mem.writeLowWatermark, 32);
    EXPECT_EQ(cfg.mem.retentionMs, 32);
    EXPECT_EQ(cfg.mem.policy, "REFab");
}

TEST(Config, ValidateNamesEveryBadKey)
{
    MemConfig cfg;
    cfg.org.rowsPerBank = rowsPerBankFor(cfg.density);
    EXPECT_EQ(cfg.validate(), "");

    cfg.writeLowWatermark = 60;
    cfg.writeHighWatermark = 50;
    cfg.retentionMs = 48;
    cfg.maxOverlappedRefPb = 0;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("'writeLowWatermark'"), std::string::npos) << err;
    EXPECT_NE(err.find("'retentionMs'"), std::string::npos) << err;
    EXPECT_NE(err.find("'maxOverlappedRefPb'"), std::string::npos) << err;
}

TEST(Config, ValidateBoundsChannelGeometry)
{
    // The FR-FCFS pick and the channel's open-bank mask keep one bit
    // per bank of a channel: at most 8 ranks and 64 banks. Anything
    // larger is a named config error, never a panic mid-run.
    MemConfig cfg;
    cfg.org.rowsPerBank = rowsPerBankFor(cfg.density);
    cfg.org.ranksPerChannel = 8;
    EXPECT_EQ(cfg.validate(), "");
    cfg.org.ranksPerChannel = 2;
    cfg.org.banksPerRank = 32;
    EXPECT_EQ(cfg.validate(), "");

    cfg.org.ranksPerChannel = 9;
    cfg.org.banksPerRank = 1;
    std::string err = cfg.validate();
    EXPECT_NE(err.find("config key 'ranksPerChannel' must be <= 8"),
              std::string::npos)
        << err;

    cfg.org.ranksPerChannel = 2;
    cfg.org.banksPerRank = 64;
    err = cfg.validate();
    EXPECT_NE(err.find("'ranksPerChannel' x 'banksPerRank' (2 x 64)"),
              std::string::npos)
        << err;
}

TEST(Config, ValidateBoundsQueueCapacity)
{
    // The controller indexes each queue with one 64-bit mask per bank:
    // the paper's 64 entries (Table 1) is also the most it can hold.
    for (const bool read : {true, false}) {
        MemConfig cfg;
        cfg.org.rowsPerBank = rowsPerBankFor(cfg.density);
        int &size = read ? cfg.readQueueSize : cfg.writeQueueSize;
        const std::string key = read ? "readQueueSize" : "writeQueueSize";
        size = 64;
        EXPECT_EQ(cfg.validate(), "") << key;
        size = 65;
        const std::string err = cfg.validate();
        EXPECT_NE(err.find("config key '" + key + "' must be <= 64 (got 65)"),
                  std::string::npos)
            << err;
    }
}

TEST(ConfigDeath, RejectsBadWatermarks)
{
    MemConfig cfg;
    cfg.writeLowWatermark = 60;
    cfg.writeHighWatermark = 50;
    EXPECT_EXIT(cfg.finalize(), testing::ExitedWithCode(1), "watermark");
}

TEST(ConfigDeath, RejectsWatermarkAboveQueueSize)
{
    MemConfig cfg;
    cfg.writeHighWatermark = 80;  // > writeQueueSize (64).
    EXPECT_EXIT(cfg.finalize(), testing::ExitedWithCode(1),
                "writeHighWatermark.*writeQueueSize");
}

TEST(ConfigDeath, RejectsZeroQueues)
{
    MemConfig cfg;
    cfg.readQueueSize = 0;
    cfg.writeQueueSize = 0;
    cfg.writeHighWatermark = 0;
    cfg.writeLowWatermark = -1;
    EXPECT_EXIT(cfg.finalize(), testing::ExitedWithCode(1),
                "readQueueSize");
}

TEST(ConfigDeath, RejectsNonPowerOfTwoSubarrays)
{
    MemConfig cfg;
    cfg.org.subarraysPerBank = 12;  // Divides nothing power-of-two-ly.
    EXPECT_EXIT(cfg.finalize(), testing::ExitedWithCode(1),
                "subarraysPerBank.*power of two");
}

TEST(ConfigDeath, RejectsZeroOverlappedRefPb)
{
    MemConfig cfg;
    cfg.maxOverlappedRefPb = 0;
    EXPECT_EXIT(cfg.finalize(), testing::ExitedWithCode(1),
                "maxOverlappedRefPb");
}

TEST(ConfigDeath, RejectsBadCoreCount)
{
    SystemConfig cfg;
    cfg.numCores = 0;
    EXPECT_EXIT(cfg.finalize(), testing::ExitedWithCode(1), "numCores");
}

TEST(ConfigDeath, RejectsBadRetention)
{
    MemConfig cfg;
    cfg.retentionMs = 48;
    EXPECT_EXIT(cfg.finalize(), testing::ExitedWithCode(1), "retention");
}

TEST(ConfigDeath, RejectsIndivisibleSubarrays)
{
    MemConfig cfg;
    cfg.org.subarraysPerBank = 7;
    EXPECT_EXIT(cfg.finalize(), testing::ExitedWithCode(1), "subarrays");
}
