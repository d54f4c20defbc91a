#include "net/prefix.h"

#include <ostream>

#include "util/strings.h"

namespace tn::net {

std::optional<Prefix> Prefix::parse(std::string_view text) noexcept {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4Addr::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  std::uint64_t length = 0;
  if (!util::parse_u64(text.substr(slash + 1), length) || length > 32)
    return std::nullopt;
  return covering(*addr, static_cast<int>(length));
}

std::string Prefix::to_string() const {
  return network_.to_string() + "/" + std::to_string(length_);
}

std::ostream& operator<<(std::ostream& os, const Prefix& prefix) {
  return os << prefix.to_string();
}

}  // namespace tn::net
