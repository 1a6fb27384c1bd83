// One spelling table per enum.
//
// An enum whose enumerators run 0..N-1 declares its wire or flag
// spellings once, as a NameTable, and takes both directions from it:
//
//   inline constexpr NameTable<Color, 3> kColorNames{{"red", "green", "blue"}};
//   kColorNames.Name(Color::kGreen);  // "green"
//   kColorNames.Find("blue");         // Color::kBlue; nullopt for a misspelling
#ifndef FLATNET_UTIL_NAMES_H_
#define FLATNET_UTIL_NAMES_H_

#include <array>
#include <cstddef>
#include <optional>
#include <string_view>

namespace flatnet {

template <typename Enum, std::size_t N>
struct NameTable {
  std::array<const char*, N> names;

  constexpr const char* Name(Enum value) const {
    return names[static_cast<std::size_t>(value)];
  }

  std::optional<Enum> Find(std::string_view text) const {
    for (std::size_t i = 0; i < N; ++i) {
      if (text == names[i]) return static_cast<Enum>(i);
    }
    return std::nullopt;
  }

  // The first M enumerators only, for a reader that accepts no others.
  template <std::size_t M>
  constexpr NameTable<Enum, M> First() const {
    static_assert(M <= N);
    NameTable<Enum, M> head{};
    for (std::size_t i = 0; i < M; ++i) head.names[i] = names[i];
    return head;
  }
};

}  // namespace flatnet

#endif  // FLATNET_UTIL_NAMES_H_
