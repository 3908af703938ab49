#include "refresh/no_refresh.hh"

#include "refresh/registry.hh"

// All scheduler behaviour is inline; this translation unit anchors the
// vtable and registers the policy.

namespace dsarp {

DSARP_REGISTER_REFRESH_POLICY(noref, {
    "NoREF", "ideal refresh-free baseline (upper bound)",
    [](MemConfig &m) { m.refresh = RefreshMode::kNoRefresh; },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<NoRefreshScheduler>(&c, &t, &v);
    }}, {"none", "no_refresh"})

} // namespace dsarp
