// Fixture: rule 8 (registrar-once).  A copy-pasted registrar registers
// both entries of reg_a.cc again.
DSARP_REGISTER_DRAM_SPEC(ddr9, makeSpec());
DSARP_REGISTER_FROBNICATOR(knob, makeKnob());
