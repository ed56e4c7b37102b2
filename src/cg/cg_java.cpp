#include "cg/cg_impl.hpp"

namespace npb::cg_detail {
template CgOutput cg_run<Checked>(const CgParams&, int, const TeamOptions&);
}  // namespace npb::cg_detail
