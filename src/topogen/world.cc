#include "topogen/world.h"

#include "util/error.h"

namespace flatnet {

const CloudInstance& World::Cloud(const std::string& name) const {
  for (const CloudInstance& cloud : clouds) {
    if (cloud.archetype.name == name) return cloud;
  }
  throw InvalidArgument("World::Cloud: unknown cloud '" + name + "'");
}

std::vector<AsId> World::StudyCloudIds() const {
  std::vector<AsId> ids;
  for (const CloudInstance& cloud : clouds) {
    if (cloud.archetype.is_study_cloud) ids.push_back(cloud.id);
  }
  return ids;
}

}  // namespace flatnet
