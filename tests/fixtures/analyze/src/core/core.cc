// Fixture: clean for rule 4 (stat-write-outside-accounting).  An
// accounting TU mutates its own counters.
struct CoreStats
{
    unsigned long long retired = 0;
};

struct Core
{
    CoreStats stats_;
    void tick() { ++stats_.retired; }
};
