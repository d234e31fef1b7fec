// Unit tests for the IO module: CSV/tables, OVF round trip, MIF-lite.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/csv.h"
#include "io/miflite.h"
#include "io/ovf.h"
#include "mag/mesh.h"
#include "mag/vector_field.h"
#include "util/error.h"

namespace {

using namespace sw::io;
using sw::util::Error;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------- csv

TEST(Csv, WritesHeaderAndRows) {
  const auto path = temp_path("sw_test.csv");
  {
    CsvWriter w(path, {"t", "mx", "my"});
    w.row({1.0, 0.5, -0.25});
    w.row_text({"2", "a", "b"});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  const auto content = slurp(path);
  EXPECT_NE(content.find("t,mx,my"), std::string::npos);
  EXPECT_NE(content.find("1,0.5,-0.25"), std::string::npos);
  EXPECT_NE(content.find("2,a,b"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, RejectsWidthMismatch) {
  const auto path = temp_path("sw_test2.csv");
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.row({1.0}), Error);
  std::remove(path.c_str());
}

TEST(Csv, CreatesParentDirectories) {
  const auto dir = temp_path("sw_csv_nested");
  std::filesystem::remove_all(dir);
  const auto path = dir + "/deep/file.csv";
  {
    CsvWriter w(path, {"x"});
    w.row({1.0});
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "0.004"});
  t.add_numeric_row({42.0, 3.14159});
  const auto s = t.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.142"), std::string::npos);
  EXPECT_THROW(t.add_row({"too", "many", "cells"}), Error);
}

// ---------------------------------------------------------------------- ovf

TEST(Ovf, RoundTripPreservesFieldAndMesh) {
  const sw::mag::Mesh mesh(6, 3, 2, 2e-9, 5e-9, 1e-9);
  sw::mag::VectorField f(mesh);
  for (std::size_t c = 0; c < f.size(); ++c) {
    f.set(c, {static_cast<double>(c), -0.5 * static_cast<double>(c), 1.0});
  }
  const auto path = temp_path("sw_test.ovf");
  write_ovf(path, f, "round trip");
  const auto g = read_ovf(path);
  ASSERT_EQ(g.size(), f.size());
  EXPECT_EQ(g.mesh().nx(), 6u);
  EXPECT_EQ(g.mesh().ny(), 3u);
  EXPECT_EQ(g.mesh().nz(), 2u);
  EXPECT_DOUBLE_EQ(g.mesh().dx(), 2e-9);
  for (std::size_t c = 0; c < f.size(); ++c) {
    EXPECT_NEAR(g[c].x, f[c].x, 1e-12);
    EXPECT_NEAR(g[c].y, f[c].y, 1e-12);
    EXPECT_NEAR(g[c].z, f[c].z, 1e-12);
  }
  std::remove(path.c_str());
}

TEST(Ovf, HeaderIsOommfCompatible) {
  const sw::mag::Mesh mesh(2, 1, 1, 1e-9, 1e-9, 1e-9);
  const sw::mag::VectorField f(mesh, {0, 0, 1});
  const auto path = temp_path("sw_hdr.ovf");
  write_ovf(path, f);
  const auto content = slurp(path);
  EXPECT_NE(content.find("# OOMMF: rectangular mesh v1.0"),
            std::string::npos);
  EXPECT_NE(content.find("# Begin: Data Text"), std::string::npos);
  EXPECT_NE(content.find("# xnodes: 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Ovf, ReadRejectsMissingFile) {
  EXPECT_THROW(read_ovf("/nonexistent/filefile.ovf"), Error);
}

TEST(Ovf, ReadRejectsTruncatedData) {
  const auto path = temp_path("sw_bad.ovf");
  std::ofstream out(path);
  out << "# OOMMF: rectangular mesh v1.0\n"
      << "# xnodes: 2\n# ynodes: 1\n# znodes: 1\n"
      << "# xstepsize: 1e-9\n# ystepsize: 1e-9\n# zstepsize: 1e-9\n"
      << "# Begin: Data Text\n"
      << "0 0 1\n"  // one row missing
      << "# End: Data Text\n";
  out.close();
  EXPECT_THROW(read_ovf(path), Error);
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ miflite

constexpr const char* kSampleMif = R"(
# paper configuration
[material]
name = FeCoB
alpha = 0.004

[waveguide]
width = 50e-9
thickness = 1e-9
pinning_factor = 0.92

[gate]
inputs = 3
frequencies = 10e9 20e9 30e9 40e9
transducer_width = 10e-9
min_gap = 1e-9
invert = 0 0 1 0
)";

TEST(MifLite, ParsesSectionsAndKeys) {
  const auto doc = MifDocument::parse(kSampleMif);
  EXPECT_TRUE(doc.has_section("material"));
  EXPECT_TRUE(doc.has_key("gate", "inputs"));
  EXPECT_FALSE(doc.has_key("gate", "nonsense"));
  EXPECT_EQ(doc.get_string("material", "name"), "FeCoB");
  EXPECT_DOUBLE_EQ(doc.get_double("waveguide", "width"), 50e-9);
  EXPECT_EQ(doc.get_long("gate", "inputs"), 3);
  EXPECT_EQ(doc.get_doubles("gate", "frequencies").size(), 4u);
}

TEST(MifLite, SectionAndKeyNamesAreCaseInsensitive) {
  const auto doc = MifDocument::parse("[Material]\nMs = 1e6\n");
  EXPECT_DOUBLE_EQ(doc.get_double("material", "ms"), 1e6);
  EXPECT_DOUBLE_EQ(doc.get_double("MATERIAL", "MS"), 1e6);
}

TEST(MifLite, CommentsAndBlankLinesIgnored) {
  const auto doc = MifDocument::parse(
      "# leading comment\n\n[a]\nx = 1 # trailing comment\n\n");
  EXPECT_DOUBLE_EQ(doc.get_double("a", "x"), 1.0);
}

TEST(MifLite, DefaultsViaOrGetters) {
  const auto doc = MifDocument::parse("[a]\nx = 2\n");
  EXPECT_DOUBLE_EQ(doc.get_double_or("a", "x", 9.0), 2.0);
  EXPECT_DOUBLE_EQ(doc.get_double_or("a", "missing", 9.0), 9.0);
  EXPECT_EQ(doc.get_long_or("b", "y", 7), 7);
}

TEST(MifLite, ParseErrorsCarryLineNumbers) {
  try {
    MifDocument::parse("[a]\nbroken line without equals\n");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(MifDocument::parse("key = before_section\n"), Error);
  EXPECT_THROW(MifDocument::parse("[unterminated\n"), Error);
}

TEST(MifLite, TypedGetterErrors) {
  const auto doc = MifDocument::parse("[a]\nx = hello\n");
  EXPECT_THROW(doc.get_double("a", "x"), Error);
  EXPECT_THROW(doc.get_double("a", "missing"), Error);
  EXPECT_THROW(doc.get_double("nosection", "x"), Error);
}

TEST(MifLite, BuildsMaterial) {
  const auto doc = MifDocument::parse(kSampleMif);
  const auto mat = parse_material(doc);
  EXPECT_EQ(mat.name, "Fe60Co20B20");
  EXPECT_DOUBLE_EQ(mat.alpha, 0.004);
  EXPECT_DOUBLE_EQ(mat.Ms, 1.1e6);  // preset value kept
}

TEST(MifLite, MaterialOverrides) {
  const auto doc =
      MifDocument::parse("[material]\nname = YIG\nms = 1.39e5\n");
  const auto mat = parse_material(doc);
  EXPECT_EQ(mat.name, "YIG");
  EXPECT_DOUBLE_EQ(mat.Ms, 1.39e5);
}

TEST(MifLite, BuildsWaveguide) {
  const auto doc = MifDocument::parse(kSampleMif);
  const auto wg = parse_waveguide(doc);
  EXPECT_DOUBLE_EQ(wg.width, 50e-9);
  EXPECT_DOUBLE_EQ(wg.thickness, 1e-9);
  EXPECT_DOUBLE_EQ(wg.pinning_factor, 0.92);
}

TEST(MifLite, BuildsGateSpec) {
  const auto doc = MifDocument::parse(kSampleMif);
  const auto spec = parse_gate_spec(doc);
  EXPECT_EQ(spec.num_inputs, 3u);
  ASSERT_EQ(spec.frequencies.size(), 4u);
  EXPECT_DOUBLE_EQ(spec.frequencies[1], 20e9);
  ASSERT_EQ(spec.invert_output.size(), 4u);
  EXPECT_EQ(spec.invert_output[2], 1);
}

TEST(MifLite, ParseFileMissingThrows) {
  EXPECT_THROW(MifDocument::parse_file("/nonexistent/file.mif"), Error);
}

}  // namespace

// Appended: ODT writer tests.
#include "io/odt.h"
#include "mag/material.h"

namespace {

TEST(Odt, WritesTableWithHeaderAndRows) {
  const auto path = temp_path("sw_test.odt");
  std::vector<sw::io::OdtColumn> cols;
  cols.push_back({"Simulation time", "s", {0.0, 1e-12, 2e-12}});
  cols.push_back({"probe::mx", "", {0.1, 0.2, 0.3}});
  sw::io::write_odt(path, "unit test", cols);
  const auto content = slurp(path);
  EXPECT_NE(content.find("# ODT 1.0"), std::string::npos);
  EXPECT_NE(content.find("{Simulation time} {probe::mx}"),
            std::string::npos);
  EXPECT_NE(content.find("# Table End"), std::string::npos);
  EXPECT_NE(content.find("0.2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Odt, RejectsMismatchedColumns) {
  std::vector<sw::io::OdtColumn> cols;
  cols.push_back({"a", "", {1.0, 2.0}});
  cols.push_back({"b", "", {1.0}});
  EXPECT_THROW(sw::io::write_odt(temp_path("bad.odt"), "t", cols), Error);
  EXPECT_THROW(sw::io::write_odt(temp_path("bad.odt"), "t", {}), Error);
}

TEST(Odt, DumpsProbesWithSharedTimeBase) {
  const sw::mag::Mesh mesh(10, 1, 1, 2e-9, 50e-9, 1e-9);
  const sw::mag::VectorField m(mesh, {0.5, 0, 1});
  sw::mag::Probe p1("O1", mesh, 10e-9, 4e-9, 1e-12);
  sw::mag::Probe p2("O2", mesh, 16e-9, 4e-9, 1e-12);
  for (int i = 0; i < 3; ++i) {
    p1.sample(i * 1e-12, m);
    p2.sample(i * 1e-12, m);
  }
  const auto path = temp_path("sw_probes.odt");
  sw::io::write_probes_odt(path, "probes", {p1, p2});
  const auto content = slurp(path);
  EXPECT_NE(content.find("{O1::mx}"), std::string::npos);
  EXPECT_NE(content.find("{O2::mz}"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
