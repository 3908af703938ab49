// Fixture: clean for rule 6 (unit-honest-conversion).  A conversion TU
// divides by the clock period.
int
nsToCycles(double ns, double tCkNs)
{
    return static_cast<int>(ns / tCkNs);
}
