// Fixture: clean for rule 2 (blessed-rng-sites).  The workload
// generator draws on purpose.
struct Rng
{
    double uniform();
};

double
pick(Rng &rng)
{
    return rng.uniform();
}
