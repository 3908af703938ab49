// Fixture: clean for rule 3 (fp-accumulation-order).  An integer
// accumulation in a loop is no fp-order hazard.
long
total(const long *xs, int n)
{
    long acc = 0;
    for (int i = 0; i < n; ++i)
        acc += xs[i];
    return acc;
}
