// Fixture: clean for rule 7 (config-key-once).  Tests set a key by
// name, the way a user would.
const char *kFgrKey = "refresh.fgrRate";
