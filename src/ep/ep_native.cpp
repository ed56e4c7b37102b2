#include "ep/ep_impl.hpp"

namespace npb::ep_detail {
template EpOutput ep_run<Unchecked>(int, int, const TeamOptions&);
}  // namespace npb::ep_detail
