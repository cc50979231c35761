#include "track/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "common/error.hpp"

namespace rfidsim::track {
namespace {

using scene::TagId;

TEST(RegistryTest, AddObjectAssignsDistinctIds) {
  ObjectRegistry reg;
  const ObjectId a = reg.add_object("box A");
  const ObjectId b = reg.add_object("box B");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.object_count(), 2u);
  EXPECT_EQ(reg.name_of(a), "box A");
  EXPECT_EQ(reg.name_of(b), "box B");
}

TEST(RegistryTest, BindAndLookup) {
  ObjectRegistry reg;
  const ObjectId obj = reg.add_object("pallet");
  reg.bind_tag(TagId{10}, obj);
  reg.bind_tag(TagId{11}, obj);
  EXPECT_EQ(reg.object_of(TagId{10}), obj);
  EXPECT_EQ(reg.object_of(TagId{11}), obj);
  EXPECT_EQ(reg.tag_count(), 2u);
  const auto tags = reg.tags_of(obj);
  EXPECT_EQ(tags.size(), 2u);
  EXPECT_NE(std::find(tags.begin(), tags.end(), TagId{10}), tags.end());
}

TEST(RegistryTest, UnknownTagIsNullopt) {
  ObjectRegistry reg;
  EXPECT_EQ(reg.object_of(TagId{99}), std::nullopt);
}

TEST(RegistryTest, UnknownObjectNameIsQuestionMark) {
  ObjectRegistry reg;
  EXPECT_EQ(reg.name_of(ObjectId{123}), "?");
  EXPECT_TRUE(reg.tags_of(ObjectId{123}).empty());
}

TEST(RegistryTest, DoubleBindThrows) {
  ObjectRegistry reg;
  const ObjectId a = reg.add_object("a");
  const ObjectId b = reg.add_object("b");
  reg.bind_tag(TagId{1}, a);
  EXPECT_THROW(reg.bind_tag(TagId{1}, b), ConfigError);
}

TEST(RegistryTest, BindToUnknownObjectThrows) {
  ObjectRegistry reg;
  EXPECT_THROW(reg.bind_tag(TagId{1}, ObjectId{42}), ConfigError);
}

TEST(RegistryTest, TagZeroIsBindable) {
  // The flat index marks empty slots with object 0, never with tag 0.
  ObjectRegistry reg;
  const ObjectId obj = reg.add_object("zero");
  EXPECT_EQ(reg.object_of(TagId{0}), std::nullopt);
  reg.bind_tag(TagId{0}, obj);
  EXPECT_EQ(reg.object_of(TagId{0}), obj);
  EXPECT_EQ(reg.tag_count(), 1u);
  EXPECT_THROW(reg.bind_tag(TagId{0}, obj), ConfigError);
}

TEST(RegistryTest, LookupsSurviveGrowthThroughManyRehashes) {
  ObjectRegistry reg;
  const ObjectId even = reg.add_object("even");
  const ObjectId odd = reg.add_object("odd");
  constexpr std::uint64_t kTags = 100000;
  // Spread ids: sequential, then high bits set, so probes cross the table.
  const auto tag_id = [](std::uint64_t i) { return i % 2 == 0 ? i : ~i; };
  for (std::uint64_t i = 0; i < kTags; ++i) {
    reg.bind_tag(TagId{tag_id(i)}, i % 2 == 0 ? even : odd);
    ASSERT_EQ(reg.tag_count(), i + 1);
  }
  for (std::uint64_t i = 0; i < kTags; ++i) {
    ASSERT_EQ(reg.object_of(TagId{tag_id(i)}), i % 2 == 0 ? even : odd) << i;
  }
  EXPECT_EQ(reg.object_of(TagId{kTags + 1}), std::nullopt);
  EXPECT_EQ(reg.object_of(TagId{~kTags}), std::nullopt);
  // A double bind after growth still throws and changes nothing.
  EXPECT_THROW(reg.bind_tag(TagId{tag_id(12345)}, even), ConfigError);
  EXPECT_THROW(reg.bind_tag(TagId{5}, ObjectId{99}), ConfigError);
  EXPECT_EQ(reg.tag_count(), kTags);
  EXPECT_EQ(reg.object_of(TagId{tag_id(12345)}), odd);
  EXPECT_EQ(reg.tags_of(even).size(), kTags / 2);
}

TEST(RegistryTest, ObjectsPreserveRegistrationOrder) {
  ObjectRegistry reg;
  const ObjectId a = reg.add_object("first");
  const ObjectId b = reg.add_object("second");
  ASSERT_EQ(reg.objects().size(), 2u);
  EXPECT_EQ(reg.objects()[0], a);
  EXPECT_EQ(reg.objects()[1], b);
}

TEST(RegistryTest, TagsOfViewSurvivesBindsToOtherObjects) {
  ObjectRegistry reg;
  const ObjectId held = reg.add_object("held");
  reg.bind_tag(TagId{7}, held);
  reg.bind_tag(TagId{3}, held);
  const std::span<const TagId> tags = reg.tags_of(held);
  const TagId* data = tags.data();
  // Many more objects and tags: the object map and the tag index both
  // grow, and neither may move the held object's tags.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    reg.bind_tag(TagId{100 + i}, reg.add_object("other"));
  }
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(reg.tags_of(held).data(), data);
  EXPECT_EQ(tags[0], TagId{7});  // Bind order.
  EXPECT_EQ(tags[1], TagId{3});
  const std::span<const TagId> unknown = reg.tags_of(ObjectId{123456});
  EXPECT_TRUE(unknown.empty());
}

}  // namespace
}  // namespace rfidsim::track
