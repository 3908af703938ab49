// Fixture: clean for rule 6 (unit-honest-conversion).  A conversion
// named in a trailing comment or a block comment is no arithmetic, and
// .ns() reads the raw figure for energy math.
double
energyNj(double cycles, double mA, const TimingParams &t)
{
    return mA * cycles * t.tCkNs.ns() * 1e-3;  // was cycles * ns / tCkNs
}

/* The controller once converted
   ns / tCkNs
   by hand. */
