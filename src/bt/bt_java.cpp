#include "bt/bt_impl.hpp"

namespace npb::bt_detail {
template AppOutput bt_run<Checked>(const AppParams&, int, const TeamOptions&);
}  // namespace npb::bt_detail
