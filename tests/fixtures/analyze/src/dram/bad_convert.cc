// Fixture: rule 6 (unit-honest-conversion).  Raw arithmetic against the
// clock period outside the conversion TUs, in a macro body and in code.
#define RAW_CYCLES(ns) static_cast<int>((ns) / tCkNs)

int
cycles(double ns, double tCkNs)
{
    return static_cast<int>(ns / tCkNs);
}
