#include "cg/cg_impl.hpp"

namespace npb::cg_detail {
template CgOutput cg_run<Unchecked>(const CgParams&, int, const TeamOptions&);
}  // namespace npb::cg_detail
