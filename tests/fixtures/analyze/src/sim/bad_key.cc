// Fixture: rule 7 (config-key-once).  Library code respells a key,
// once behind a block comment on the same line, and quotes one inside
// a message literal.
const char *kSpec = "dram.spec";
/* note */ const char *k = "refresh.fgrRate";
const char *kMsg = "config key 'refresh.fgrRate' must be 0, 1, 2 or 4";
