// Fixture: rule 10 (tags-by-name-only).  A test selects a mechanism by
// writing the tag that resolve() resets.
void
selectPerBank(SystemConfig &cfg)
{
    cfg.mem.refresh = RefreshMode::kPerBank;
}
