#include "track/registry.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace rfidsim::track {

ObjectId ObjectRegistry::add_object(std::string name) {
  const ObjectId id{next_id_++};
  names_[id.value] = std::move(name);
  object_tags_[id.value] = {};
  order_.push_back(id);
  return id;
}

std::size_t ObjectRegistry::probe(std::uint64_t tag) const {
  const std::size_t mask = tag_index_.size() - 1;
  std::size_t h = static_cast<std::size_t>(splitmix64(tag)) & mask;
  while (tag_index_[h].object != 0 && tag_index_[h].tag != tag) h = (h + 1) & mask;
  return h;
}

void ObjectRegistry::rehash(std::size_t capacity) {
  std::vector<TagSlot> old = std::exchange(tag_index_, std::vector<TagSlot>(capacity));
  for (const TagSlot& slot : old) {
    if (slot.object != 0) tag_index_[probe(slot.tag)] = slot;
  }
}

void ObjectRegistry::bind_tag(scene::TagId tag, ObjectId object) {
  require(names_.contains(object.value), "ObjectRegistry: unknown object id");
  // Grow at 0.7 load (including the slot about to be claimed).
  if ((tag_count_ + 1) * 10 >= tag_index_.size() * 7) {
    rehash(std::max<std::size_t>(16, tag_index_.size() * 2));
  }
  TagSlot& slot = tag_index_[probe(tag.value)];
  require(slot.object == 0, "ObjectRegistry: tag is already bound to an object");
  slot = {tag.value, object.value};
  ++tag_count_;
  object_tags_[object.value].push_back(tag);
}

std::optional<ObjectId> ObjectRegistry::object_of(scene::TagId tag) const {
  if (tag_index_.empty()) return std::nullopt;
  const TagSlot& slot = tag_index_[probe(tag.value)];
  if (slot.object == 0) return std::nullopt;
  return ObjectId{slot.object};
}

std::span<const scene::TagId> ObjectRegistry::tags_of(ObjectId object) const {
  // Map nodes never move, so only a push_back to this object's own vector
  // can invalidate the view.
  const auto it = object_tags_.find(object.value);
  if (it == object_tags_.end()) return {};
  return it->second;
}

const std::string& ObjectRegistry::name_of(ObjectId object) const {
  static const std::string unknown = "?";
  const auto it = names_.find(object.value);
  return it == names_.end() ? unknown : it->second;
}

}  // namespace rfidsim::track
