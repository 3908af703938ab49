// Fixture: clean for rule 8 (registrar-once).  A new entry, and one
// named like an entry of another family.
DSARP_REGISTER_DRAM_SPEC(ddr10, makeSpec());
DSARP_REGISTER_FROBNICATOR(ddr9, makeKnob());
