/**
 * @file
 * Unit tests for the bounded request queue, and a property test of its
 * per-bank index against a brute-force recount.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "controller/queues.hh"

using namespace dsarp;

namespace {

Request
makeReq(std::uint64_t id, RankId r, BankId b, RowId row, Addr addr = 0,
        bool is_write = false)
{
    Request req;
    req.id = id;
    req.isWrite = is_write;
    req.addr = addr;
    req.loc.rank = r;
    req.loc.bank = b;
    req.loc.row = row;
    return req;
}

} // namespace

TEST(RequestQueue, PushPopFifoOrder)
{
    RequestQueue q(4, 2, 8);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.push(makeReq(1, 0, 0, 0)));
    EXPECT_TRUE(q.push(makeReq(2, 0, 1, 0)));
    EXPECT_EQ(q.size(), 2);
    EXPECT_EQ(q.at(0).id, 1u);
    EXPECT_EQ(q.at(1).id, 2u);
    const Request r = q.pop(0);
    EXPECT_EQ(r.id, 1u);
    EXPECT_EQ(q.at(0).id, 2u);
}

TEST(RequestQueue, CapacityEnforced)
{
    RequestQueue q(2, 2, 8);
    EXPECT_TRUE(q.push(makeReq(1, 0, 0, 0)));
    EXPECT_TRUE(q.push(makeReq(2, 0, 0, 0)));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(makeReq(3, 0, 0, 0)));
    EXPECT_EQ(q.size(), 2);
}

TEST(RequestQueue, BankCountsMaintained)
{
    RequestQueue q(16, 2, 8);
    q.push(makeReq(1, 0, 3, 0));
    q.push(makeReq(2, 0, 3, 1));
    q.push(makeReq(3, 1, 3, 2));
    EXPECT_EQ(q.bankCount(0, 3), 2);
    EXPECT_EQ(q.bankCount(1, 3), 1);
    EXPECT_EQ(q.bankCount(0, 4), 0);
    q.pop(0);
    EXPECT_EQ(q.bankCount(0, 3), 1);
}

TEST(RequestQueue, PopMiddlePreservesOrder)
{
    RequestQueue q(8, 1, 8);
    for (std::uint64_t i = 1; i <= 4; ++i)
        q.push(makeReq(i, 0, 0, 0));
    q.pop(1);  // Remove id 2.
    EXPECT_EQ(q.at(0).id, 1u);
    EXPECT_EQ(q.at(1).id, 3u);
    EXPECT_EQ(q.at(2).id, 4u);
}

TEST(RequestQueue, FindAddr)
{
    RequestQueue q(8, 2, 8);
    q.push(makeReq(1, 0, 0, 0, 0x1000));
    q.push(makeReq(2, 0, 0, 0, 0x2000));
    EXPECT_EQ(q.findAddr(0x2000, 0, 0), 1);
    EXPECT_EQ(q.findAddr(0x3000, 0, 0), -1);

    // Other banks' entries sit between and after the same bank's: the
    // probe walks only the target bank and returns its first match.
    q.push(makeReq(3, 1, 0, 0, 0x4000));
    q.push(makeReq(4, 0, 5, 0, 0x5000));
    q.push(makeReq(5, 0, 0, 1, 0x6000));
    q.push(makeReq(6, 0, 0, 1, 0x6000));
    EXPECT_EQ(q.findAddr(0x6000, 0, 0), 4);
    EXPECT_EQ(q.findAddr(0x4000, 1, 0), 2);
    EXPECT_EQ(q.findAddr(0x5000, 0, 5), 3);
    // A match outside the probed bank is not found: the caller decodes
    // the address first, so equal addresses always share a bank.
    EXPECT_EQ(q.findAddr(0x4000, 0, 0), -1);
    EXPECT_EQ(q.findAddr(0x1000, 0, 5), -1);

    // Pops shift the positions; the probe follows them.
    q.pop(0);
    EXPECT_EQ(q.findAddr(0x2000, 0, 0), 0);
    EXPECT_EQ(q.findAddr(0x6000, 0, 0), 3);
    EXPECT_EQ(q.findAddr(0x1000, 0, 0), -1);
}

TEST(RequestQueue, RowCount)
{
    RequestQueue q(8, 2, 8);
    q.push(makeReq(1, 0, 2, 77));
    q.push(makeReq(2, 0, 2, 77));
    q.push(makeReq(3, 0, 2, 78));
    q.push(makeReq(4, 1, 2, 77));
    EXPECT_EQ(q.rowCount(0, 2, 77), 2);
    EXPECT_EQ(q.rowCount(0, 2, 78), 1);
    EXPECT_EQ(q.rowCount(1, 2, 77), 1);
    EXPECT_EQ(q.rowCount(0, 3, 77), 0);
}

TEST(RequestQueue, BankIndexMatchesBruteForceRecount)
{
    // Random push/pop sequences at several capacities and geometries
    // (up to the 64-entry, 64-bank bounds). After every step the bank
    // masks and every count must equal a recount over at(i).
    struct Shape
    {
        int capacity, ranks, banks;
    };
    for (const Shape shape : {Shape{1, 1, 1}, Shape{7, 2, 8},
                              Shape{64, 2, 8}, Shape{64, 1, 64},
                              Shape{33, 8, 8}}) {
        RequestQueue q(shape.capacity, shape.ranks, shape.banks);
        const int num_banks = shape.ranks * shape.banks;
        Rng rng(static_cast<std::uint64_t>(shape.capacity * 131 + num_banks));
        std::uint64_t next_id = 0;
        for (int step = 0; step < 4000; ++step) {
            // Drift between empty and full: push-biased in the first
            // half of every 400 steps, pop-biased in the second.
            const bool push_bias = step % 400 < 200;
            if (!q.empty() && rng.below(4) >= (push_bias ? 3u : 1u)) {
                const int i = static_cast<int>(rng.below(q.size()));
                const std::uint64_t id = q.at(i).id;
                EXPECT_EQ(q.pop(i).id, id);
            } else {
                const bool was_full = q.full();
                const bool pushed = q.push(makeReq(
                    ++next_id, static_cast<RankId>(rng.below(shape.ranks)),
                    static_cast<BankId>(rng.below(shape.banks)),
                    static_cast<RowId>(rng.below(3))));
                EXPECT_EQ(pushed, !was_full);
            }

            std::uint64_t busy = 0;
            for (int bank = 0; bank < num_banks; ++bank) {
                std::uint64_t pos = 0;
                for (int i = 0; i < q.size(); ++i) {
                    const DecodedAddr &loc = q.at(i).loc;
                    if (loc.rank * shape.banks + loc.bank == bank)
                        pos |= std::uint64_t(1) << i;
                }
                ASSERT_EQ(q.positions(bank), pos)
                    << "step " << step << " bank " << bank;
                if (pos)
                    busy |= std::uint64_t(1) << bank;
            }
            ASSERT_EQ(q.busyBanks(), busy) << "step " << step;

            for (RankId r = 0; r < shape.ranks; ++r) {
                for (BankId b = 0; b < shape.banks; ++b) {
                    int bank_count = 0;
                    int row_count[3] = {};
                    for (int i = 0; i < q.size(); ++i) {
                        const DecodedAddr &loc = q.at(i).loc;
                        if (loc.rank == r && loc.bank == b) {
                            ++bank_count;
                            ++row_count[loc.row];
                        }
                    }
                    ASSERT_EQ(q.bankCount(r, b), bank_count);
                    for (RowId row = 0; row < 3; ++row)
                        ASSERT_EQ(q.rowCount(r, b, row), row_count[row]);
                    ASSERT_EQ(q.rowCount(r, b, 3), 0);
                }
            }
        }
    }
}
