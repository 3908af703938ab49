/**
 * @file
 * A scriptable ControllerView for unit-testing refresh policies without a
 * full controller: pending-demand counts, writeback-mode flag, and idle
 * timestamps are set directly by the test; the DRAM state is a real
 * Channel the test drives, and a policy's requests issue on it as the
 * controller issues them: req.cmd, then onIssued().
 */

#ifndef DSARP_TESTS_MOCK_VIEW_HH
#define DSARP_TESTS_MOCK_VIEW_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "dram/channel.hh"
#include "refresh/scheduler.hh"

namespace dsarp {

class MockView : public ControllerView
{
  public:
    MockView(const MemConfig *cfg, const TimingParams *timing)
        : cfg_(cfg), channel_(cfg, timing), rng_(42)
    {
        reads_.assign(cfg->org.ranksPerChannel * cfg->org.banksPerRank, 0);
        writes_.assign(reads_.size(), 0);
        lastActivity_.assign(cfg->org.ranksPerChannel, 0);
    }

    int
    pendingDemands(RankId r, BankId b) const override
    {
        return reads_[index(r, b)] + writes_[index(r, b)];
    }

    std::uint64_t
    demandBanks() const override
    {
        std::uint64_t banks = 0;
        for (std::size_t i = 0; i < reads_.size(); ++i) {
            if (reads_[i] + writes_[i] > 0)
                banks |= std::uint64_t(1) << i;
        }
        return banks;
    }

    bool inWritebackMode() const override { return writeback_; }

    Tick
    lastDemandActivity(RankId r) const override
    {
        return lastActivity_[r];
    }

    const Channel &dram() const override { return channel_; }
    Rng &schedulerRng() override { return rng_; }

    /** @name Test controls. */
    /// @{
    void setReads(RankId r, BankId b, int n) { reads_[index(r, b)] = n; }
    void setWrites(RankId r, BankId b, int n) { writes_[index(r, b)] = n; }
    void setWriteback(bool on) { writeback_ = on; }
    void setLastActivity(RankId r, Tick t) { lastActivity_[r] = t; }
    Channel &channel() { return channel_; }
    /// @}

    /** Issue @p req's command if it is legal at @p now, and tell
     *  @p sched; false when it is not legal. */
    bool
    issueRefresh(RefreshScheduler &sched, const RefreshRequest &req, Tick now)
    {
        if (!channel_.canIssue(req.cmd, now))
            return false;
        channel_.issue(req.cmd, now);
        sched.onIssued(req, now);
        return true;
    }

    /** issueRefresh() the first legal request of @p reqs, as the
     *  controller's urgent step does: the one issued, or nullptr. */
    const RefreshRequest *
    issueFirstLegal(RefreshScheduler &sched,
                    const std::vector<RefreshRequest> &reqs, Tick now)
    {
        for (const RefreshRequest &req : reqs) {
            if (issueRefresh(sched, req, now))
                return &req;
        }
        return nullptr;
    }

  private:
    int
    index(RankId r, BankId b) const
    {
        return r * cfg_->org.banksPerRank + b;
    }

    const MemConfig *cfg_;
    Channel channel_;
    Rng rng_;
    std::vector<int> reads_;
    std::vector<int> writes_;
    std::vector<Tick> lastActivity_;
    bool writeback_ = false;
};

} // namespace dsarp

#endif // DSARP_TESTS_MOCK_VIEW_HH
