#include "lu/lu_impl.hpp"

namespace npb::lu_detail {
template AppOutput lu_run<Checked>(const AppParams&, int, const TeamOptions&);
template AppOutput lu_run_hp<Checked>(const AppParams&, int, const TeamOptions&);
}  // namespace npb::lu_detail
