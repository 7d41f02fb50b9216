#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace cas::util {
namespace {

// argv helper: builds a mutable char* array from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    ptrs_.push_back(const_cast<char*>("prog"));
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

Flags make_flags() {
  Flags f("test");
  f.add_int("n", 18, "size");
  f.add_double("ratio", 0.5, "ratio");
  f.add_bool("full", false, "full mode");
  f.add_string("engine", "as", "engine");
  return f;
}

TEST(Flags, DefaultsSurviveEmptyParse) {
  auto f = make_flags();
  Argv a({});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_EQ(f.get_int("n"), 18);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 0.5);
  EXPECT_FALSE(f.get_bool("full"));
  EXPECT_EQ(f.get_string("engine"), "as");
}

TEST(Flags, EqualsSyntax) {
  auto f = make_flags();
  Argv a({"--n=20", "--ratio=0.25", "--engine=ds"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_EQ(f.get_int("n"), 20);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 0.25);
  EXPECT_EQ(f.get_string("engine"), "ds");
}

TEST(Flags, SpaceSyntax) {
  auto f = make_flags();
  Argv a({"--n", "21", "--engine", "hc"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_EQ(f.get_int("n"), 21);
  EXPECT_EQ(f.get_string("engine"), "hc");
}

TEST(Flags, BareBoolSwitch) {
  auto f = make_flags();
  Argv a({"--full"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_TRUE(f.get_bool("full"));
}

TEST(Flags, ExplicitBoolValues) {
  for (const char* v : {"true", "1", "yes", "on"}) {
    auto f = make_flags();
    Argv a({std::string("--full=") + v});
    ASSERT_TRUE(f.parse(a.argc(), a.argv()));
    EXPECT_TRUE(f.get_bool("full")) << v;
  }
  for (const char* v : {"false", "0", "no", "off"}) {
    auto f = make_flags();
    Argv a({std::string("--full=") + v});
    ASSERT_TRUE(f.parse(a.argc(), a.argv()));
    EXPECT_FALSE(f.get_bool("full")) << v;
  }
}

TEST(Flags, UnknownFlagThrows) {
  auto f = make_flags();
  Argv a({"--bogus=1"});
  EXPECT_THROW(f.parse(a.argc(), a.argv()), std::runtime_error);
}

TEST(Flags, BadValueThrows) {
  auto f = make_flags();
  Argv a({"--n=notanumber"});
  EXPECT_THROW(f.parse(a.argc(), a.argv()), std::runtime_error);
}

TEST(Flags, MissingValueThrows) {
  auto f = make_flags();
  Argv a({"--n"});
  EXPECT_THROW(f.parse(a.argc(), a.argv()), std::runtime_error);
}

TEST(Flags, HelpReturnsFalse) {
  auto f = make_flags();
  Argv a({"--help"});
  EXPECT_FALSE(f.parse(a.argc(), a.argv()));
}

TEST(Flags, PositionalArgumentsCollected) {
  auto f = make_flags();
  Argv a({"pos1", "--n=3", "pos2"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "pos1");
  EXPECT_EQ(f.positional()[1], "pos2");
}

TEST(Flags, PassthroughPrefixesIgnored) {
  auto f = make_flags();
  Argv a({"--benchmark_filter=abc", "--n=5"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv(), {"benchmark_"}));
  EXPECT_EQ(f.get_int("n"), 5);
}

TEST(Flags, WrongTypeAccessThrows) {
  auto f = make_flags();
  Argv a({});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_THROW((void)f.get_int("engine"), std::logic_error);
  EXPECT_THROW((void)f.get_bool("n"), std::logic_error);
}

TEST(Flags, HelpTextMentionsAllFlags) {
  auto f = make_flags();
  const std::string h = f.help_text();
  for (const char* name : {"--n", "--ratio", "--full", "--engine", "--help"}) {
    EXPECT_NE(h.find(name), std::string::npos) << name;
  }
}

TEST(Flags, NegativeNumbersParse) {
  auto f = make_flags();
  Argv a({"--n=-3", "--ratio=-0.5"});
  ASSERT_TRUE(f.parse(a.argc(), a.argv()));
  EXPECT_EQ(f.get_int("n"), -3);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), -0.5);
}

}  // namespace
}  // namespace cas::util
