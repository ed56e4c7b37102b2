#include "sp/sp_impl.hpp"

namespace npb::sp_detail {
template AppOutput sp_run<Checked>(const AppParams&, int, const TeamOptions&);
}  // namespace npb::sp_detail
