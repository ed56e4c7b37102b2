#include "is/is_impl.hpp"

namespace npb::is_detail {
template IsOutput is_run<Unchecked>(long, long, int, int, const TeamOptions&);
}  // namespace npb::is_detail
