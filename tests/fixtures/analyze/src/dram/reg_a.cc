// Fixture: rule 8 (registrar-once).  The first registration of each
// entry; reg_b.cc copies both.
DSARP_REGISTER_DRAM_SPEC(ddr9, makeSpec());
DSARP_REGISTER_FROBNICATOR(knob, makeKnob());
