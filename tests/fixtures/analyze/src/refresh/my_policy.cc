// Fixture: clean for rule 10 (tags-by-name-only).  A policy's config
// bundle sets its own tags.
void
bundle(MemConfig &m)
{
    m.sarp = true;
}
