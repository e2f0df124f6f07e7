#include "support/interner.hpp"

#include "support/errors.hpp"

namespace saintdroid {

Symbol StringInterner::intern(std::string_view s) {
  if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
  const auto id = static_cast<Symbol>(strings_.size());
  SD_EXPECTS(id != npos);
  strings_.emplace_back(s);
  ids_.emplace(strings_.back(), id);
  return id;
}

const std::string& StringInterner::lookup(Symbol id) const {
  SD_EXPECTS(id < strings_.size());
  return strings_[id];
}

Symbol StringInterner::find(std::string_view s) const {
  const auto it = ids_.find(s);
  return it == ids_.end() ? npos : it->second;
}

}  // namespace saintdroid
