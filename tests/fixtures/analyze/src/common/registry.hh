// Fixture: rule 8 (registrar-once).  The registrar families the rule
// reads: one the real tree has, and one it has never seen.
#define DSARP_REGISTER_DRAM_SPEC(ident, ...) int dsarpSpec_##ident;
#define DSARP_REGISTER_FROBNICATOR(ident, ...) int dsarpFrob_##ident;
