#include "ep/ep_impl.hpp"

namespace npb::ep_detail {
template EpOutput ep_run<Checked>(int, int, const TeamOptions&);
}  // namespace npb::ep_detail
