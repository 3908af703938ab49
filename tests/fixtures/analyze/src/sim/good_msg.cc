// Fixture: clean for rule 7 (config-key-once).  A message built from
// the keys::k* constant, a key quoted in a comment ('refresh.fgrRate')
// and a longer name that merely starts with a key.
#include <string>

std::string
fgrRateError()
{
    return std::string("config key '") + keys::kFgrRate + "' must be 0";
}

const char *kField = "field 'refresh.fgrRateMax'";
