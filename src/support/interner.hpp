// String interner: maps strings to dense 32-bit ids and back.
//
// The SDEX pools, the class hierarchy and the API database all key on type
// and method names; interning turns those comparisons into integer
// comparisons and deduplicates storage across thousands of analyzed apps.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace saintdroid {

/// Dense id assigned by a StringInterner. 0 is a valid id.
using Symbol = std::uint32_t;

class StringInterner {
 public:
  /// Returns the id for `s`, inserting it on first sight. Heterogeneous
  /// lookup: probing never materializes a temporary std::string; one
  /// allocation happens only on genuine first sight.
  Symbol intern(std::string_view s);

  /// Returns the string for an id previously returned by intern().
  const std::string& lookup(Symbol id) const;

  /// Returns the id for `s` if already interned, or npos. Allocation-free.
  Symbol find(std::string_view s) const;

  std::size_t size() const { return strings_.size(); }

  static constexpr Symbol npos = ~Symbol{0};

 private:
  // Transparent hash/equality so string_view probes hit std::string keys
  // directly (P0919 heterogeneous unordered lookup).
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept {
      return a == b;
    }
  };

  std::unordered_map<std::string, Symbol, Hash, Eq> ids_;
  std::vector<std::string> strings_;
};

}  // namespace saintdroid
