// Fixture: clean for rule 10 (tags-by-name-only).  A comparison is not
// an assignment.
bool
usesHira(const MemConfig *c)
{
    return c->hira == true;
}
