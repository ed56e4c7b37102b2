#include "mg/mg_impl.hpp"

namespace npb::mg_detail {
template MgOutput mg_run<Unchecked, true>(const MgParams&, int, const TeamOptions&);
}  // namespace npb::mg_detail
