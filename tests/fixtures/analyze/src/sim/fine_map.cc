// Fixture: clean for rules 1 and 5 (ordered-iteration,
// pointer-ordered-containers).  An ordered map keyed on strings.
#include <map>
#include <string>

int
count(const std::map<std::string, int> &m)
{
    int n = 0;
    for (const auto &kv : m)
        n += kv.second;
    return n;
}
