#include "lu/lu_impl.hpp"

namespace npb::lu_detail {
template AppOutput lu_run<Unchecked>(const AppParams&, int, const TeamOptions&);
template AppOutput lu_run_hp<Unchecked>(const AppParams&, int, const TeamOptions&);
}  // namespace npb::lu_detail
