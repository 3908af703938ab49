/**
 * @file
 * Tests for the string-keyed refresh-policy registry: every built-in
 * mechanism round-trips by name (and alias), a resolved config depends
 * on its name alone, unknown names fail with a helpful error, and --
 * the acceptance bar for the open API -- a custom policy registered at
 * runtime drives a full System on either engine with no factory/enum
 * edits. The registration errors of the registry template
 * (common/registry.hh) are checked on all three registries: policies,
 * specs and maps.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dram/address.hh"
#include "dram/spec.hh"
#include "mock_view.hh"
#include "refresh/darp.hh"
#include "refresh/elastic.hh"
#include "refresh/registry.hh"
#include "sim/system.hh"

using namespace dsarp;

namespace {

/** Expected resolved tags per canonical mechanism name. */
struct Expected
{
    const char *name;
    RefreshMode mode;
    bool sarp;
    bool hira;
};

/** The paper's eleven mechanisms, then the HiRA and DDR5 extensions. */
const std::vector<Expected> &
builtinMechanisms()
{
    static const std::vector<Expected> table = {
        {"NoREF", RefreshMode::kNoRefresh, false, false},
        {"REFab", RefreshMode::kAllBank, false, false},
        {"REFpb", RefreshMode::kPerBank, false, false},
        {"Elastic", RefreshMode::kAllBank, false, false},
        {"DARP", RefreshMode::kPerBank, false, false},
        {"SARPab", RefreshMode::kAllBank, true, false},
        {"SARPpb", RefreshMode::kPerBank, true, false},
        {"DSARP", RefreshMode::kPerBank, true, false},
        {"FGR2x", RefreshMode::kFgr2x, false, false},
        {"FGR4x", RefreshMode::kFgr4x, false, false},
        {"AR", RefreshMode::kAllBank, false, false},
        {"HiRA", RefreshMode::kPerBank, false, true},
        {"REFsb", RefreshMode::kSameBank, false, false},
        {"HiRAsb", RefreshMode::kSameBank, false, true},
    };
    return table;
}

} // namespace

TEST(Registry, AllBuiltinMechanismsRegistered)
{
    const auto &registry = RefreshPolicyRegistry::instance();
    for (const Expected &mech : builtinMechanisms()) {
        const auto *entry = registry.find(mech.name);
        ASSERT_NE(entry, nullptr) << mech.name;
        EXPECT_EQ(entry->name, mech.name);
        EXPECT_FALSE(entry->summary.empty()) << mech.name;
    }
}

TEST(Registry, NamesAreSortedAndCanonical)
{
    const auto names = RefreshPolicyRegistry::instance().names();
    EXPECT_GE(names.size(), 11u);
    for (std::size_t i = 1; i < names.size(); ++i)
        EXPECT_LT(names[i - 1], names[i]);
    // Aliases must not show up as separate mechanisms.
    for (const std::string &name : names)
        EXPECT_NE(name, "all_bank");
}

TEST(Registry, LookupIsCaseInsensitiveAndAliased)
{
    const auto &registry = RefreshPolicyRegistry::instance();
    EXPECT_EQ(registry.at("dsarp").name, "DSARP");
    EXPECT_EQ(registry.at("REFAB").name, "REFab");
    EXPECT_EQ(registry.at("all_bank").name, "REFab");
    EXPECT_EQ(registry.at("per_bank").name, "REFpb");
    EXPECT_EQ(registry.at("sarp_ab").name, "SARPab");
    EXPECT_EQ(registry.at("sarp_pb").name, "SARPpb");
    EXPECT_EQ(registry.at("none").name, "NoREF");
    EXPECT_EQ(registry.at("adaptive").name, "AR");
    EXPECT_FALSE(registry.has("bogus"));
    EXPECT_EQ(registry.find("bogus"), nullptr);
}

TEST(Registry, ResolveAppliesConfigBundle)
{
    for (const Expected &mech : builtinMechanisms()) {
        MemConfig cfg;
        cfg.policy = mech.name;
        RefreshPolicyRegistry::instance().resolve(cfg);
        EXPECT_EQ(cfg.policy, mech.name);
        EXPECT_EQ(cfg.refresh, mech.mode) << mech.name;
        EXPECT_EQ(cfg.sarp, mech.sarp) << mech.name;
        EXPECT_EQ(cfg.hira, mech.hira) << mech.name;
    }
}

TEST(Registry, ResolvedTagsDependOnTheNameAlone)
{
    // Re-resolving a HiRA config as any other mechanism must reset
    // every tag HiRA's bundle set, not inherit it.
    const auto &registry = RefreshPolicyRegistry::instance();
    MemConfig cfg;
    for (const Expected &mech : builtinMechanisms()) {
        cfg.policy = "HiRA";
        registry.resolve(cfg);
        EXPECT_EQ(cfg.refresh, RefreshMode::kPerBank);
        EXPECT_FALSE(cfg.sarp);
        EXPECT_TRUE(cfg.hira);

        cfg.policy = mech.name;
        registry.resolve(cfg);
        EXPECT_EQ(cfg.refresh, mech.mode) << mech.name;
        EXPECT_EQ(cfg.sarp, mech.sarp) << mech.name;
        EXPECT_EQ(cfg.hira, mech.hira) << mech.name;
    }
}

namespace {

/** The refresh command a timing profile issues; none for kNoRefresh. */
std::optional<CommandType>
profileRefresh(RefreshMode mode)
{
    switch (mode) {
      case RefreshMode::kNoRefresh:
        return std::nullopt;
      case RefreshMode::kAllBank:
      case RefreshMode::kFgr2x:
      case RefreshMode::kFgr4x:
        return CommandType::kRefAb;
      case RefreshMode::kPerBank:
        return CommandType::kRefPb;
      case RefreshMode::kSameBank:
        return CommandType::kRefSb;
    }
    return std::nullopt;
}

} // namespace

TEST(Registry, EveryMechanismIssuesItsProfilesRefreshKind)
{
    // The command a policy writes into its RefreshRequest is the one
    // the controller issues, so a System's command log shows each
    // mechanism's refreshes as exactly the kind its resolved timing
    // profile names, and at least one of them.
    for (const std::string &name : RefreshPolicyRegistry::instance().names()) {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.enableChecker = true;  // Keeps the command log.
        cfg.mem.policy = name;
        RefreshPolicyRegistry::instance().resolve(cfg.mem);
        if (cfg.mem.refresh == RefreshMode::kSameBank)
            cfg.mem.dramSpec = "DDR5-4800";  // A device with REFsb slices.
        SCOPED_TRACE(name + " on " + cfg.mem.dramSpec);
        const std::optional<CommandType> kind =
            profileRefresh(cfg.mem.refresh);

        System sys(cfg, std::vector<int>{0, 1});
        sys.run(60000);
        std::uint64_t refreshes = 0;
        std::uint64_t wrong = 0;
        for (int ch = 0; ch < sys.numChannels(); ++ch) {
            for (const TimedCommand &tc : sys.commandLog(ch)) {
                if (!isRefreshCmd(tc.cmd.type))
                    continue;
                ++refreshes;
                wrong += tc.cmd.type != kind;
            }
        }
        EXPECT_EQ(wrong, 0u);
        EXPECT_EQ(refreshes > 0, kind.has_value()) << refreshes;
    }
}

TEST(Registry, MakeDispatchesByName)
{
    MemConfig cfg;
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    MockView view(&cfg, &timing);

    MemConfig darp = cfg;
    darp.policy = "DARP";
    auto by_name =
        RefreshPolicyRegistry::instance().make(darp, timing, view);
    EXPECT_NE(dynamic_cast<DarpScheduler *>(by_name.get()), nullptr);

    MemConfig elastic = cfg;
    elastic.policy = "elastic";  // Case-insensitive, like resolve().
    auto by_alias =
        RefreshPolicyRegistry::instance().make(elastic, timing, view);
    EXPECT_NE(dynamic_cast<ElasticScheduler *>(by_alias.get()), nullptr);
}

TEST(RegistryDeath, UnknownNameListsKnownMechanisms)
{
    MemConfig cfg;
    cfg.policy = "quantum-refresh";  // Not a registered mechanism.
    EXPECT_EXIT(RefreshPolicyRegistry::instance().resolve(cfg),
                testing::ExitedWithCode(1),
                "unknown refresh policy 'quantum-refresh'.*DSARP");
}

// ---------------------------------------------------------------------
// The open-API acceptance test: a policy defined and registered at
// runtime, outside src/refresh/, drives a full System by name.
// ---------------------------------------------------------------------

namespace {

/** A trivial custom policy: refreshes every bank of rank 0 on a fixed
 *  short period, tracking construction and issue counts. */
class TestPulseScheduler : public RefreshScheduler
{
  public:
    static int constructed;
    static int issuedCount;

    TestPulseScheduler(const MemConfig *cfg, const TimingParams *timing,
                       ControllerView *view)
        : RefreshScheduler(cfg, timing, view)
    {
        ++constructed;
    }

    void tick(Tick now) override
    {
        due_ = now % static_cast<Tick>((timing_->tRefiAb / 2).count()) == 0;
    }

    void
    urgent(Tick, std::vector<RefreshRequest> &out) override
    {
        if (!due_)
            return;
        RefreshRequest req;
        req.cmd.type = CommandType::kRefAb;
        out.push_back(req);
    }

    bool opportunistic(Tick, RefreshRequest &) override { return false; }

    void
    onIssued(const RefreshRequest &, Tick) override
    {
        due_ = false;
        ++issuedCount;
        ++stats_.issued;
    }

    /** The tick after an unissued pulse (which drops it), else the
     *  next pulse: the event engine runs nothing in between. */
    Tick
    nextWake(Tick now) override
    {
        const Tick period = static_cast<Tick>((timing_->tRefiAb / 2).count());
        return due_ ? now + 1 : (now / period + 1) * period;
    }

  private:
    bool due_ = false;
};

/** TestPulse with a wake at the current tick, which the event engine
 *  cannot honour. */
class StuckWakeScheduler : public TestPulseScheduler
{
  public:
    using TestPulseScheduler::TestPulseScheduler;

    Tick nextWake(Tick now) override { return now; }
};

int TestPulseScheduler::constructed = 0;
int TestPulseScheduler::issuedCount = 0;

const bool testPolicyRegistered [[maybe_unused]] =
    RefreshPolicyRegistry::instance().add(
        {"TestPulse", "test-local custom policy (registered at runtime)",
         nullptr,  // REFab's timing profile; dispatch is by name.
         [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
             return std::make_unique<TestPulseScheduler>(&c, &t, &v);
         }},
        {"test_pulse"});

} // namespace

TEST(Registry, RuntimeRegisteredPolicyDrivesASystem)
{
    ASSERT_TRUE(RefreshPolicyRegistry::instance().has("TestPulse"));

    // The policy's nextWake() is all the event engine knows of it, so
    // both engines must issue the same commands.
    std::vector<std::uint64_t> streams[2];
    for (int e = 0; e < 2; ++e) {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.engine = e == 0 ? "cycle" : "event";
        cfg.mem.policy = "test_pulse";  // Alias, mixed case welcome.
        SCOPED_TRACE(cfg.engine);
        TestPulseScheduler::constructed = 0;
        TestPulseScheduler::issuedCount = 0;

        System sys(cfg, std::vector<int>{0, 1});
        EXPECT_EQ(sys.config().mem.policy, "TestPulse");  // Canonicalised.
        EXPECT_EQ(sys.config().mem.refresh, RefreshMode::kAllBank);
        EXPECT_EQ(TestPulseScheduler::constructed,
                  sys.config().mem.org.channels);

        sys.run(2000);
        sys.resetStats();
        sys.run(40000);
        EXPECT_GT(TestPulseScheduler::issuedCount, 0);

        std::uint64_t reads = 0;
        for (int ch = 0; ch < sys.numChannels(); ++ch) {
            const ChannelController &ctl = sys.controller(ch);
            reads += ctl.stats().readsCompleted;
            streams[e].push_back(ctl.stats().cmdDigest);
            streams[e].push_back(ctl.refreshStats().issued);
        }
        EXPECT_GT(reads, 0u);
    }
    EXPECT_EQ(streams[0], streams[1]);
}

TEST(RegistryDeath, PolicyWakeAtNowPanicsOnTheEventEngine)
{
    // A wake at the current tick is no wake at all: the event engine
    // would skip ticks on which the cycle engine runs the policy. The
    // policy registers in the death test's child, so the registry of
    // this process stays as it is.
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.engine = "event";
    cfg.mem.policy = "TestStuckWake";
    EXPECT_DEATH(
        {
            RefreshPolicyRegistry::instance().add(
                {"TestStuckWake", "", nullptr,
                 [](const MemConfig &c, const TimingParams &t,
                    ControllerView &v) {
                     return std::make_unique<StuckWakeScheduler>(&c, &t,
                                                                 &v);
                 }});
            System sys(cfg, std::vector<int>{0, 1});
            sys.run(20000);
        },
        "refresh policy wake not after the current tick");
}

// ---------------------------------------------------------------------
// Registration errors, owned by the registry template and so checked on
// every registry. Each registration runs in the death test's child, so
// the registries of this process stay as they are.
// ---------------------------------------------------------------------

namespace {

/**
 * Per registry: a built-in name and its case-only twin, a well-formed
 * entry under any name, and a malformed entry with its panic text.
 */
template <class R>
struct Entries;

template <>
struct Entries<RefreshPolicyRegistry>
{
    static constexpr const char *kBuiltin = "REFab";
    static constexpr const char *kCaseTwin = "refab";
    static constexpr const char *kMalformed =
        "refresh policy needs a factory";

    static RefreshPolicyInfo
    valid(const std::string &name)
    {
        return {name, "", nullptr,
                [](const MemConfig &, const TimingParams &,
                   ControllerView &) {
                    return std::unique_ptr<RefreshScheduler>();
                }};
    }

    static RefreshPolicyInfo
    malformed()
    {
        return {"NoFactory", "", nullptr, nullptr};
    }
};

template <>
struct Entries<DramSpecRegistry>
{
    static constexpr const char *kBuiltin = "DDR3-1333";
    static constexpr const char *kCaseTwin = "ddr3-1333";
    static constexpr const char *kMalformed =
        "DRAM spec needs a positive tCK";

    static DramSpec
    valid(const std::string &name)
    {
        DramSpec spec;
        spec.name = name;
        return spec;
    }

    static DramSpec
    malformed()
    {
        DramSpec spec = valid("ZeroTck");
        spec.tCkNs = Nanoseconds(0.0);
        return spec;
    }
};

template <>
struct Entries<AddressMapRegistry>
{
    static constexpr const char *kBuiltin = "burst-ch";
    static constexpr const char *kCaseTwin = "BURST-CH";
    static constexpr const char *kMalformed = "address map needs a factory";

    static AddressMapInfo
    valid(const std::string &name)
    {
        return {name, "",
                [](const MemOrg &org) {
                    return std::make_unique<AddressMap>(org);
                },
                nullptr, nullptr};
    }

    static AddressMapInfo
    malformed()
    {
        return {"no-factory", "", nullptr, nullptr, nullptr};
    }
};

/** The abort message of a taken name: "<noun> name '<name>' ...". */
template <class R>
std::string
registeredTwice(const std::string &name)
{
    return std::string(R::kNoun) + " name '" + name + "' registered twice";
}

template <class R>
class RegistrationDeathTest : public testing::Test
{
};

using AllRegistries = testing::Types<RefreshPolicyRegistry,
                                     DramSpecRegistry, AddressMapRegistry>;
TYPED_TEST_SUITE(RegistrationDeathTest, AllRegistries);

} // namespace

TYPED_TEST(RegistrationDeathTest, DuplicateNameAborts)
{
    using E = Entries<TypeParam>;
    EXPECT_DEATH(TypeParam::instance().add(E::valid(E::kBuiltin)),
                 registeredTwice<TypeParam>(E::kBuiltin));
}

TYPED_TEST(RegistrationDeathTest, CaseOnlyCollisionAborts)
{
    using E = Entries<TypeParam>;
    EXPECT_DEATH(TypeParam::instance().add(E::valid(E::kCaseTwin)),
                 registeredTwice<TypeParam>(E::kCaseTwin));
}

TYPED_TEST(RegistrationDeathTest, AliasCollisionAborts)
{
    using E = Entries<TypeParam>;
    auto &registry = TypeParam::instance();
    EXPECT_DEATH(
        {
            registry.add(E::valid("first-entry"), {"shared-alias"});
            registry.add(E::valid("second-entry"), {"shared-alias"});
        },
        registeredTwice<TypeParam>("shared-alias"));
}

TYPED_TEST(RegistrationDeathTest, MalformedEntryAborts)
{
    using E = Entries<TypeParam>;
    EXPECT_DEATH(TypeParam::instance().add(E::malformed()), E::kMalformed);
}
