#include "io/ovf.h"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "io/csv.h"
#include "util/error.h"
#include "util/strings.h"

namespace sw::io {

using sw::mag::Mesh;
using sw::mag::Vec3;
using sw::mag::VectorField;

void write_ovf(const std::string& path, const VectorField& field,
               const std::string& title) {
  ensure_parent_dir(path);
  std::ofstream out(path);
  SW_REQUIRE(out.good(), "cannot open " + path + " for writing");
  out << std::setprecision(17);  // lossless double round trip
  const Mesh& mesh = field.mesh();

  out << "# OOMMF: rectangular mesh v1.0\n";
  out << "# Segment count: 1\n";
  out << "# Begin: Segment\n";
  out << "# Begin: Header\n";
  out << "# Title: " << title << "\n";
  out << "# meshtype: rectangular\n";
  out << "# meshunit: m\n";
  out << "# valueunit: A/m\n";
  out << "# valuemultiplier: 1.0\n";
  out << "# xbase: " << mesh.dx() * 0.5 << "\n";
  out << "# ybase: " << mesh.dy() * 0.5 << "\n";
  out << "# zbase: " << mesh.dz() * 0.5 << "\n";
  out << "# xstepsize: " << mesh.dx() << "\n";
  out << "# ystepsize: " << mesh.dy() << "\n";
  out << "# zstepsize: " << mesh.dz() << "\n";
  out << "# xnodes: " << mesh.nx() << "\n";
  out << "# ynodes: " << mesh.ny() << "\n";
  out << "# znodes: " << mesh.nz() << "\n";
  out << "# xmin: 0\n# ymin: 0\n# zmin: 0\n";
  out << "# xmax: " << mesh.size_x() << "\n";
  out << "# ymax: " << mesh.size_y() << "\n";
  out << "# zmax: " << mesh.size_z() << "\n";
  out << "# End: Header\n";
  out << "# Begin: Data Text\n";
  for (std::size_t c = 0; c < field.size(); ++c) {
    const Vec3 v = field[c];
    out << v.x << " " << v.y << " " << v.z << "\n";
  }
  out << "# End: Data Text\n";
  out << "# End: Segment\n";
  SW_REQUIRE(out.good(), "write failed for " + path);
}

VectorField read_ovf(const std::string& path) {
  std::ifstream in(path);
  SW_REQUIRE(in.good(), "cannot open " + path);

  std::size_t nx = 0, ny = 0, nz = 0;
  double dx = 0, dy = 0, dz = 0;
  std::string line;
  bool in_data = false;
  std::vector<Vec3> data;

  auto header_value = [](const std::string& l) {
    const auto pos = l.find(':', 2);
    SW_REQUIRE(pos != std::string::npos, "malformed OVF header line: " + l);
    return std::string(sw::util::trim(l.substr(pos + 1)));
  };

  while (std::getline(in, line)) {
    const auto trimmed = sw::util::trim(line);
    if (trimmed.empty()) continue;
    if (trimmed[0] == '#') {
      const std::string l(trimmed);
      if (l.find("xnodes") != std::string::npos) {
        nx = static_cast<std::size_t>(*sw::util::parse_long(header_value(l)));
      } else if (l.find("ynodes") != std::string::npos) {
        ny = static_cast<std::size_t>(*sw::util::parse_long(header_value(l)));
      } else if (l.find("znodes") != std::string::npos) {
        nz = static_cast<std::size_t>(*sw::util::parse_long(header_value(l)));
      } else if (l.find("xstepsize") != std::string::npos) {
        dx = *sw::util::parse_double(header_value(l));
      } else if (l.find("ystepsize") != std::string::npos) {
        dy = *sw::util::parse_double(header_value(l));
      } else if (l.find("zstepsize") != std::string::npos) {
        dz = *sw::util::parse_double(header_value(l));
      } else if (l.find("Begin: Data Text") != std::string::npos) {
        in_data = true;
      } else if (l.find("End: Data Text") != std::string::npos) {
        in_data = false;
      }
      continue;
    }
    if (in_data) {
      const auto parts = sw::util::split_ws(trimmed);
      SW_REQUIRE(parts.size() == 3, "bad OVF data row");
      const auto x = sw::util::parse_double(parts[0]);
      const auto y = sw::util::parse_double(parts[1]);
      const auto z = sw::util::parse_double(parts[2]);
      SW_REQUIRE(x && y && z, "non-numeric OVF data");
      data.push_back({*x, *y, *z});
    }
  }
  SW_REQUIRE(nx >= 1 && ny >= 1 && nz >= 1, "missing node counts");
  SW_REQUIRE(dx > 0 && dy > 0 && dz > 0, "missing step sizes");
  SW_REQUIRE(data.size() == nx * ny * nz, "OVF data size mismatch");

  VectorField field(Mesh(nx, ny, nz, dx, dy, dz));
  for (std::size_t c = 0; c < data.size(); ++c) field.set(c, data[c]);
  return field;
}

}  // namespace sw::io
