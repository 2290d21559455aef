// Regression tests for the strict QuerySpec text codec (src/engine/spec).
// The old `serve` parser accepted trailing garbage (`seed=5x` parsed as 5)
// and wrapped negatives through std::stoull (`seed=-1`, `budget=-1` became
// enormous unsigned values); the strict parser rejects both with a
// `label:line:` error. The codec is also the coordinator→worker wire
// format, so Write -> Parse must round-trip losslessly.

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "engine/query.h"
#include "engine/spec.h"
#include "gtest/gtest.h"

namespace cyclestream::engine {
namespace {

// Parses one spec-file body; returns the error ("" on success).
std::string ParseError(const std::string& body,
                       std::vector<QuerySpec>* specs = nullptr) {
  std::istringstream in(body);
  std::vector<QuerySpec> local;
  std::string error;
  if (ParseSpecStream(in, "<spec>", QuerySpec(), specs ? specs : &local,
                      &error)) {
    return "";
  }
  return error;
}

TEST(SpecParseTest, ParsesAWellFormedLine) {
  std::vector<QuerySpec> specs;
  ASSERT_EQ(ParseError("name=q0 kind=arb-f2 seed=5 budget=128 epsilon=0.25\n"
                       "# comment only\n"
                       "\n"
                       "name=q1 kind=triest reservoir=50  # trailing comment\n",
                       &specs),
            "");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "q0");
  EXPECT_EQ(specs[0].kind, QueryKind::kArbF2);
  EXPECT_EQ(specs[0].base.seed, 5u);
  EXPECT_EQ(specs[0].space_budget_words, 128u);
  EXPECT_EQ(specs[0].base.epsilon, 0.25);
  EXPECT_EQ(specs[1].name, "q1");
  EXPECT_EQ(specs[1].kind, QueryKind::kTriest);
  EXPECT_EQ(specs[1].reservoir_capacity, 50u);
}

TEST(SpecParseTest, RejectsTrailingGarbageOnUnsignedKeys) {
  // The old parser's std::stoull consumed the leading digits and silently
  // dropped the rest: seed=5x "parsed" as 5.
  const std::string error = ParseError("name=q0 kind=arb-f2 seed=5x\n");
  EXPECT_NE(error.find("<spec>:1:"), std::string::npos) << error;
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  EXPECT_NE(error.find("5x"), std::string::npos) << error;
}

TEST(SpecParseTest, RejectsNegativesOnUnsignedKeys) {
  // std::stoull accepts a leading '-' and wraps: seed=-1 became 2^64-1.
  for (const char* line :
       {"name=q0 kind=arb-f2 seed=-1\n", "name=q0 kind=arb-f2 budget=-1\n",
        "name=q0 kind=triest reservoir=-5\n",
        "name=q0 kind=arb-f2 num_vertices=-1\n"}) {
    const std::string error = ParseError(line);
    EXPECT_NE(error.find("<spec>:1:"), std::string::npos)
        << "'" << line << "' -> " << error;
    EXPECT_NE(error.find("non-negative"), std::string::npos)
        << "'" << line << "' -> " << error;
  }
  // '+' prefixes are equally non-canonical.
  EXPECT_NE(ParseError("name=q0 kind=arb-f2 seed=+3\n"), "");
}

TEST(SpecParseTest, RejectsMalformedDoublesAndUnknownKeys) {
  EXPECT_NE(ParseError("name=q0 kind=arb-f2 epsilon=abc\n"), "");
  EXPECT_NE(ParseError("name=q0 kind=arb-f2 epsilon=0.5junk\n"), "");
  EXPECT_NE(ParseError("name=q0 kind=arb-f2 epsilon\n"), "");
  EXPECT_NE(ParseError("name=q0 kind=not-a-kind\n"), "");
  // The removed update-path knobs are unknown keys like any other.
  for (const char* line : {"name=q0 kind=arb-f2 wibble=3\n",
                           "name=q0 kind=arb-f2 sketch_backend=block\n",
                           "name=q0 kind=arb-f2 intra_shards=4\n"}) {
    const std::string error = ParseError(line);
    EXPECT_NE(error.find("<spec>:1: unknown key"), std::string::npos)
        << "'" << line << "' -> " << error;
  }
}

TEST(SpecParseTest, RejectsATGuessPastTheLevelMask) {
  // Random-order keeps one mask bit per level, 1 + ⌈log₂ √t_guess⌉ levels:
  // 2^126 gives 64, the most a mask holds; anything larger, or not a
  // number, is refused at its line, not by a shift past the word.
  EXPECT_EQ(ParseError("name=r0 kind=random-order t_guess=8.5e37\n"), "");
  for (const char* line : {"name=r0 kind=random-order t_guess=1e40\n",
                           "name=r0 kind=random-order t_guess=inf\n",
                           "name=r0 kind=random-order t_guess=nan\n"}) {
    const std::string error = ParseError(line);
    EXPECT_NE(error.find("<spec>:1: query 'r0': t_guess"), std::string::npos)
        << "'" << line << "' -> " << error;
    EXPECT_NE(error.find("at most 64 levels fit"), std::string::npos)
        << "'" << line << "' -> " << error;
  }
  // Other kinds have no level mask.
  EXPECT_EQ(ParseError("name=q0 kind=arb-f2 t_guess=1e40\n"), "");
}

TEST(SpecParseTest, RequiresNameAndKind) {
  EXPECT_NE(ParseError("kind=arb-f2 seed=1\n"), "");
  EXPECT_NE(ParseError("name=q0 seed=1\n"), "");
}

TEST(SpecParseTest, ErrorsCarryTheRightLineNumber) {
  const std::string error = ParseError(
      "name=q0 kind=arb-f2\n"
      "# fine\n"
      "name=q2 kind=arb-f2 seed=9z\n");
  EXPECT_NE(error.find("<spec>:3:"), std::string::npos) << error;

  // Lines before the bad one are kept (documented partial-parse contract).
  std::vector<QuerySpec> specs;
  ParseError("name=q0 kind=arb-f2\nname=q1 kind=arb-f2 seed=9z\n", &specs);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].name, "q0");
}

TEST(SpecParseTest, WriteThenParseIsLossless) {
  std::vector<QuerySpec> specs;
  QuerySpec spec;
  spec.name = "gnarly";
  spec.kind = QueryKind::kArbF2;
  spec.base.epsilon = 1.0 / 3.0;  // Not representable in short decimal.
  spec.base.c = 2.7182818284590452;
  spec.base.t_guess = 123456789.000000123;
  spec.base.seed = ~std::uint64_t{0} - 1;
  spec.num_vertices = 4096;
  spec.space_budget_words = 777;
  spec.level_rate = 0.1;  // 0.1 is inexact in binary.
  spec.prefix_rate = -1.0;
  spec.reservoir_capacity = 31337;
  specs.push_back(spec);
  QuerySpec other = spec;
  other.name = "plain";
  other.base.epsilon = 0.5;
  specs.push_back(other);

  const std::string dir = ::testing::TempDir() + "cli_spec_test";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/specs.txt";
  std::string error;
  ASSERT_TRUE(WriteSpecFile(path, specs, &error)) << error;

  std::vector<QuerySpec> parsed;
  ASSERT_TRUE(ParseSpecFile(path, QuerySpec(), &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    EXPECT_EQ(parsed[i].name, specs[i].name);
    EXPECT_EQ(parsed[i].kind, specs[i].kind);
    // Bitwise double equality: the %.17g round trip must be exact.
    EXPECT_EQ(parsed[i].base.epsilon, specs[i].base.epsilon);
    EXPECT_EQ(parsed[i].base.c, specs[i].base.c);
    EXPECT_EQ(parsed[i].base.t_guess, specs[i].base.t_guess);
    EXPECT_EQ(parsed[i].base.seed, specs[i].base.seed);
    EXPECT_EQ(parsed[i].num_vertices, specs[i].num_vertices);
    EXPECT_EQ(parsed[i].space_budget_words, specs[i].space_budget_words);
    EXPECT_EQ(parsed[i].level_rate, specs[i].level_rate);
    EXPECT_EQ(parsed[i].prefix_rate, specs[i].prefix_rate);
    EXPECT_EQ(parsed[i].reservoir_capacity, specs[i].reservoir_capacity);
  }
  EXPECT_EQ(FingerprintSpecs(parsed), FingerprintSpecs(specs));
}

TEST(SpecFingerprintTest, BindsResultAffectingFieldsOnly) {
  std::vector<QuerySpec> specs;
  QuerySpec spec;
  spec.name = "q";
  spec.kind = QueryKind::kArbF2;
  spec.base.seed = 3;
  specs.push_back(spec);
  const std::uint64_t base_fp = FingerprintSpecs(specs);

  specs[0].base.seed = 4;
  EXPECT_NE(FingerprintSpecs(specs), base_fp);
  specs[0].base.seed = 3;
  specs[0].space_budget_words = 9;
  EXPECT_NE(FingerprintSpecs(specs), base_fp);
}

}  // namespace
}  // namespace cyclestream::engine
