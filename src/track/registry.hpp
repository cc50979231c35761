// Tag-to-object registry.
//
// The paper's system-level definition of tracking reliability "obviates a
// one-to-one mapping between a tag and an object": an object may carry
// several tags, and a person may be identified via any tagged possession.
// The registry is that many-to-one mapping, owned by the back end.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "scene/tag.hpp"

namespace rfidsim::track {

/// Strongly-typed object (or person) identifier.
struct ObjectId {
  std::uint64_t value = 0;
  constexpr auto operator<=>(const ObjectId&) const = default;
};

/// Many-to-one mapping from tags to the objects that carry them.
class ObjectRegistry {
 public:
  /// Registers an object; returns its id. Names are for reporting only and
  /// need not be unique.
  ObjectId add_object(std::string name);

  /// Associates a tag with an object. A tag can belong to at most one
  /// object; re-binding an already-bound tag throws ConfigError.
  void bind_tag(scene::TagId tag, ObjectId object);

  /// The object carrying `tag`, if any.
  std::optional<ObjectId> object_of(scene::TagId tag) const;

  /// All tags bound to `object`, in bind order (empty if none / unknown).
  /// A view into the registry: it stays valid until the next bind_tag of
  /// `object`; binding tags to other objects leaves it intact.
  std::span<const scene::TagId> tags_of(ObjectId object) const;

  /// Display name of an object ("?" if unknown).
  const std::string& name_of(ObjectId object) const;

  /// All registered objects, in registration order.
  const std::vector<ObjectId>& objects() const { return order_; }

  std::size_t object_count() const { return order_.size(); }
  std::size_t tag_count() const { return tag_count_; }

 private:
  /// One slot of the tag index; object 0 marks an empty slot (ids start
  /// at 1), so every tag id, 0 included, stays bindable.
  struct TagSlot {
    std::uint64_t tag = 0;
    std::uint64_t object = 0;
  };
  /// Slot `tag` occupies, or the empty slot where it would go.
  std::size_t probe(std::uint64_t tag) const;
  void rehash(std::size_t capacity);

  /// Open-addressing tag -> object index: power-of-two capacity, SplitMix64
  /// home slot, linear probing, load <= 0.7 — TrackingStore's shard-index
  /// scheme, so a lookup reads one flat array instead of chasing a node.
  std::vector<TagSlot> tag_index_;
  std::size_t tag_count_ = 0;
  std::unordered_map<std::uint64_t, std::string> names_;
  std::unordered_map<std::uint64_t, std::vector<scene::TagId>> object_tags_;
  std::vector<ObjectId> order_;
  std::uint64_t next_id_ = 1;
};

}  // namespace rfidsim::track

template <>
struct std::hash<rfidsim::track::ObjectId> {
  std::size_t operator()(const rfidsim::track::ObjectId& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value);
  }
};
