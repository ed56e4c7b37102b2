#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/classes.hpp"
#include "common/crc32c.hpp"
#include "common/mode.hpp"
#include "common/table.hpp"
#include "common/verify.hpp"
#include "common/wtime.hpp"

namespace npb {
namespace {

TEST(Classes, RoundTrip) {
  for (ProblemClass c : {ProblemClass::S, ProblemClass::W, ProblemClass::A,
                         ProblemClass::B, ProblemClass::C}) {
    const auto parsed = parse_class(to_string(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, c);
  }
}

TEST(Classes, ParseIsCaseInsensitive) {
  EXPECT_EQ(parse_class("a"), ProblemClass::A);
  EXPECT_EQ(parse_class("s"), ProblemClass::S);
}

TEST(Classes, ParseRejectsJunk) {
  EXPECT_FALSE(parse_class("").has_value());
  EXPECT_FALSE(parse_class("D").has_value());
  EXPECT_FALSE(parse_class("AA").has_value());
}

TEST(Mode, Names) {
  EXPECT_STREQ(to_string(Mode::Native), "native");
  EXPECT_STREQ(to_string(Mode::Java), "java");
}

TEST(Verify, ApproxEqualRelative) {
  EXPECT_TRUE(approx_equal(1.0, 1.0));
  EXPECT_TRUE(approx_equal(1.0 + 5e-9, 1.0));
  EXPECT_FALSE(approx_equal(1.0 + 5e-7, 1.0));
  EXPECT_TRUE(approx_equal(-1234.5, -1234.5 * (1 + 1e-9)));
}

TEST(Verify, ApproxEqualNearZeroIsAbsolute) {
  EXPECT_TRUE(approx_equal(1e-15, 0.0));
  EXPECT_FALSE(approx_equal(1e-3, 0.0));
}

TEST(Verify, RejectsNonFinite) {
  EXPECT_FALSE(approx_equal(std::nan(""), 1.0));
  EXPECT_FALSE(approx_equal(1.0, std::numeric_limits<double>::infinity()));
}

TEST(Verify, ChecksumVectorMismatchedLength) {
  const auto v = verify_checksums({1.0}, {1.0, 2.0});
  EXPECT_FALSE(v.passed);
  EXPECT_NE(v.detail.find("mismatch"), std::string::npos);
}

TEST(Verify, ChecksumVectorReportsPerElement) {
  const auto v = verify_checksums({1.0, 3.0}, {1.0, 2.0});
  EXPECT_FALSE(v.passed);
  EXPECT_NE(v.detail.find("FAIL"), std::string::npos);
  EXPECT_NE(v.detail.find("ok"), std::string::npos);
}

TEST(Verify, ChecksumVectorPasses) {
  const auto v = verify_checksums({1.0, -2.5}, {1.0, -2.5});
  EXPECT_TRUE(v.passed);
}

TEST(Wtime, MonotoneAndTimerAccumulates) {
  const double a = wtime();
  const double b = wtime();
  EXPECT_GE(b, a);
  Timer t;
  t.start();
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  t.stop();
  EXPECT_GT(t.elapsed(), 0.0);
  const double once = t.elapsed();
  t.start();
  t.stop();
  EXPECT_GE(t.elapsed(), once);
  t.reset();
  EXPECT_EQ(t.elapsed(), 0.0);
}

TEST(Table, RendersHeaderAndRows) {
  Table t("Table X. demo");
  t.set_header({"Benchmark", "Serial", "1", "2"});
  t.add_row({"BT.A", "12.30", "13.10", "7.20"});
  t.add_separator();
  t.add_row({"SP.A", Table::cell(5.4321), Table::cell(-1.0), "9"});
  const std::string s = t.render();
  EXPECT_NE(s.find("Table X. demo"), std::string::npos);
  EXPECT_NE(s.find("Benchmark"), std::string::npos);
  EXPECT_NE(s.find("12.30"), std::string::npos);
  EXPECT_NE(s.find("5.43"), std::string::npos);
  // cell(-1) renders the paper's "-" placeholder.
  EXPECT_NE(s.find('-'), std::string::npos);
}

TEST(Table, CellPrecision) {
  EXPECT_EQ(Table::cell(1.23456, 3), "1.235");
  EXPECT_EQ(Table::cell(-0.5), "-");
}

// ---- CRC32C ---------------------------------------------------------------
// crc32c() takes the CPU's crc32 instruction where it has one; every case
// below holds it and the portable slicing-by-8 path to the same values.

const char* crc_path() {
  return crc::detail::crc32c_hardware()
             ? "crc32c() on the crc32 instruction"
             : "crc32c() on the portable path (no SSE4.2 on this CPU)";
}

std::vector<unsigned char> random_bytes(std::size_t n, std::mt19937& rng) {
  std::vector<unsigned char> b(n);
  for (unsigned char& c : b) c = static_cast<unsigned char>(rng());
  return b;
}

TEST(Crc32c, Rfc3720KnownAnswersOnBothPaths) {
  SCOPED_TRACE(crc_path());
  // RFC 3720 (iSCSI), appendix B.4, plus the customary "123456789" check.
  std::vector<unsigned char> up(32), down(32);
  for (std::size_t i = 0; i < 32; ++i) {
    up[i] = static_cast<unsigned char>(i);
    down[i] = static_cast<unsigned char>(31 - i);
  }
  const std::string digits = "123456789";
  const struct {
    const char* name;
    std::vector<unsigned char> bytes;
    std::uint32_t crc;
  } vectors[] = {
      {"\"123456789\"", {digits.begin(), digits.end()}, 0xE3069283u},
      {"32 x 0x00", std::vector<unsigned char>(32, 0x00), 0x8A9136AAu},
      {"32 x 0xFF", std::vector<unsigned char>(32, 0xFF), 0x62A8AB43u},
      {"0x00..0x1F", up, 0x46DD794Eu},
      {"0x1F..0x00", down, 0x113FDB5Cu},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(crc::crc32c(v.bytes.data(), v.bytes.size()), v.crc) << v.name;
    EXPECT_EQ(crc::detail::crc32c_portable(v.bytes.data(), v.bytes.size()),
              v.crc)
        << v.name;
  }
}

TEST(Crc32c, HardwareMatchesPortableAtEveryLengthOffsetAndSeed) {
  SCOPED_TRACE(crc_path());
  std::mt19937 rng(3720);
  const std::vector<unsigned char> buf = random_bytes(1024 + 8, rng);
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len = 0; len <= 1024; ++len) {
      const auto seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(crc::crc32c(buf.data() + off, len, seed),
                crc::detail::crc32c_portable(buf.data() + off, len, seed))
          << "offset " << off << ", length " << len << ", seed " << seed;
    }
}

TEST(Crc32c, SeedComposesAtEverySplit) {
  SCOPED_TRACE(crc_path());
  std::mt19937 rng(82);
  const std::vector<unsigned char> buf = random_bytes(300, rng);
  const std::uint32_t whole = crc::crc32c(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::size_t rest = buf.size() - split;
    EXPECT_EQ(crc::crc32c(buf.data() + split, rest,
                          crc::crc32c(buf.data(), split)),
              whole)
        << "split " << split;
    EXPECT_EQ(crc::detail::crc32c_portable(
                  buf.data() + split, rest,
                  crc::detail::crc32c_portable(buf.data(), split)),
              whole)
        << "portable, split " << split;
  }
}

}  // namespace
}  // namespace npb
