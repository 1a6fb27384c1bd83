#include "asgraph/metadata.h"

namespace flatnet {

const char* ToString(AsType type) {
  switch (type) {
    case AsType::kTransit: return "transit";
    case AsType::kAccess: return "access";
    case AsType::kContent: return "content";
    case AsType::kEnterprise: return "enterprise";
    case AsType::kCloud: return "cloud";
  }
  return "?";
}

double AsMetadata::TotalUsers() const {
  double total = 0.0;
  for (const AsInfo& info : info_) total += info.users;
  return total;
}

std::vector<double> AsMetadata::UserArray() const {
  std::vector<double> users;
  users.reserve(info_.size());
  for (const AsInfo& info : info_) users.push_back(info.users);
  return users;
}

std::vector<std::size_t> AsMetadata::TypeCounts() const {
  std::vector<std::size_t> counts(5, 0);
  for (const AsInfo& info : info_) ++counts[static_cast<std::size_t>(info.type)];
  return counts;
}

AsType ReclassifyWithUsers(AsType caida_label, double users) {
  if (caida_label == AsType::kTransit || caida_label == AsType::kAccess) {
    return users > 0.0 ? AsType::kAccess : AsType::kTransit;
  }
  return caida_label;
}

}  // namespace flatnet
