// Fixture: rule 6 (unit-honest-conversion).  examples/ is in scope, and
// so is the clock period read through a chain of members.
double
busNs(const Spec &spec, int cycles)
{
    return cycles * spec.timing.tCkNs;
}
