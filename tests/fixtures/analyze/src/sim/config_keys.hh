// Fixture: rule 7 (config-key-once).  The key declarations the rule
// reads; the last one declares a key twice.
inline constexpr char kFgrRate[] = "refresh.fgrRate";
inline constexpr char kDramSpec[] = "dram.spec";
inline constexpr char kSpecAgain[] = "dram.spec";
