// Fixture: clean for rule 3 (fp-accumulation-order).  A blessed
// accumulation point may fold doubles in a loop.
void
add(double &sum_, const double *xs, int n)
{
    for (int i = 0; i < n; ++i)
        sum_ += xs[i];
}
