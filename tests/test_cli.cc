/**
 * @file
 * The dsarp_sim command line as a library (sim/cli.hh): flag sugar,
 * layering order, and error routing. The tool itself only prints;
 * everything decidable lives in parseCommandLine() and is pinned here.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "common/log.hh"
#include "sim/cli.hh"

using namespace dsarp;

namespace {

CliResult
parse(std::vector<std::string> args)
{
    return parseCommandLine(args);
}

} // namespace

TEST(Cli, FlagSugarSetsConfigKeys)
{
    const CliResult res =
        parse({"--mech", "REFpb", "--channels", "4", "--engine", "event",
               "--cores", "2", "--seed", "42", "--jobs", "3"});
    ASSERT_EQ(res.action, CliAction::Run);
    EXPECT_EQ(res.config.sys.mem.policy, "REFpb");
    EXPECT_EQ(res.config.sys.mem.org.channels, 4);
    EXPECT_EQ(res.config.sys.engine, "event");
    EXPECT_EQ(res.config.sys.numCores, 2);
    EXPECT_EQ(res.config.sys.seed, 42u);
    EXPECT_EQ(res.jobs, 3);
}

TEST(Cli, TraceImpliesTraceMode)
{
    const CliResult res = parse({"--trace", "mixed.trc"});
    ASSERT_EQ(res.action, CliAction::Run);
    EXPECT_EQ(res.config.sys.traffic.tracePath, "mixed.trc");
    EXPECT_EQ(res.config.sys.traffic.mode, "trace");
}

TEST(Cli, ListAndHelpShortCircuit)
{
    EXPECT_EQ(parse({"--help"}).action, CliAction::Help);
    EXPECT_EQ(parse({"-h"}).action, CliAction::Help);
    EXPECT_EQ(parse({"--list"}).action, CliAction::ListAll);
    EXPECT_EQ(parse({"--list-mechs"}).action, CliAction::ListMechs);
    EXPECT_EQ(parse({"--list-keys"}).action, CliAction::ListKeys);
    // A list action wins even with bad flags behind it: the parse
    // stops there, like the original tool's early returns.
    EXPECT_EQ(parse({"--list-maps", "--bogus"}).action,
              CliAction::ListMaps);
}

TEST(Cli, FlagSyntaxErrorsAreNamed)
{
    const CliResult unknown = parse({"--frobnicate"});
    ASSERT_EQ(unknown.action, CliAction::Error);
    EXPECT_TRUE(unknown.unknownOption);
    EXPECT_NE(unknown.error.find("--frobnicate"), std::string::npos);

    const CliResult missing = parse({"--seed"});
    ASSERT_EQ(missing.action, CliAction::Error);
    EXPECT_FALSE(missing.unknownOption);
    EXPECT_NE(missing.error.find("--seed needs a value"),
              std::string::npos);

    for (const char *bad : {"0", "-3", "junk", "4x", "99999999999"}) {
        const CliResult jobs = parse({"--jobs", bad});
        ASSERT_EQ(jobs.action, CliAction::Error) << bad;
        EXPECT_NE(jobs.error.find("--jobs"), std::string::npos) << bad;
    }
}

TEST(Cli, BadConfigValuesStayFatalNamedErrors)
{
    // Value errors are the config layer's contract, not the flag
    // parser's: they must still route through DSARP_FATAL with the
    // key named.
    struct Catcher
    {
        static void handler(const char *, int, const char *) { throw 1; }
    };
    const FatalHandler prev = setFatalHandler(&Catcher::handler);
    EXPECT_THROW(parse({"--channels", "many"}), int);
    EXPECT_THROW(parse({"--set", "no.such.key=1"}), int);
    setFatalHandler(prev);
}

TEST(CliDeath, RemovedKeyNamesItsReplacement)
{
    EXPECT_EXIT(parse({"--set", "energy.selfRefreshIdle=1000"}),
                testing::ExitedWithCode(1),
                "config key 'energy.selfRefreshIdle': removed; use "
                "'refresh.selfRefresh.idleEntry'");
}

TEST(Cli, LayeringConfigFileThenEnvThenFlags)
{
    const std::string path = testing::TempDir() + "cli_layering.cfg";
    {
        std::ofstream out(path);
        out << "channels=8\nnumCores=2\nseed=5\n";
    }
    setenv("DSARP_SET", "numCores=6,intensityPct=50", 1);
    // Flag order must not matter: --config is layered first even when
    // it appears last.
    const CliResult res =
        parse({"--seed", "9", "--config", path});
    unsetenv("DSARP_SET");
    ASSERT_EQ(res.action, CliAction::Run);
    EXPECT_EQ(res.config.sys.mem.org.channels, 8); // File only.
    EXPECT_EQ(res.config.sys.numCores, 6);         // Env beats file.
    EXPECT_EQ(res.config.intensityPct, 50);        // Env only.
    EXPECT_EQ(res.config.sys.seed, 9u);            // Flag beats file.
}
