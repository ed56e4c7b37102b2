#include "ft/ft_impl.hpp"

namespace npb::ft_detail {
template FtOutput ft_run<Checked>(const FtParams&, int, const TeamOptions&);
}  // namespace npb::ft_detail
