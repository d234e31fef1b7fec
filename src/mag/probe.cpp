#include "mag/probe.h"

#include <algorithm>

#include "util/error.h"

namespace sw::mag {

Probe::Probe(std::string probe_name, const Mesh& mesh, double x_center,
             double width, double sample_interval)
    : name_(std::move(probe_name)),
      mesh_(mesh),
      x_center_(x_center),
      interval_(sample_interval) {
  SW_REQUIRE(sample_interval > 0.0, "sample interval must be positive");
  SW_REQUIRE(width >= 0.0, "width must be non-negative");
  const double x0 = x_center - 0.5 * width;
  const double x1 = x_center + 0.5 * width;
  SW_REQUIRE(x1 >= 0.0 && x0 <= mesh.size_x(), "probe outside the mesh");
  i_begin_ = mesh.cell_at_x(std::max(x0, 0.0));
  i_end_ = std::min<std::size_t>(mesh.cell_at_x(x1) + 1, mesh.nx());
  SW_ASSERT(i_begin_ < i_end_, "empty probe window");
}

void Probe::maybe_sample(double t, const VectorField& m) {
  // Relative tolerance absorbs rounding drift between the solver's time
  // accumulation and the k * interval grid.
  if (t < next_deadline() - 1e-9 * interval_) return;
  sample(t, m);
  // Skip any deadlines a coarse caller jumped over.
  next_index_ =
      static_cast<std::size_t>(std::floor(t / interval_ + 1e-9)) + 1;
}

void Probe::sample(double t, const VectorField& m) {
  SW_REQUIRE(m.size() == mesh_.cell_count(), "field size mismatch");
  // Average over the x-window across the full cross-section, each component
  // summed in cell order.
  const std::size_t nx = mesh_.nx();
  const std::size_t rows = mesh_.ny() * mesh_.nz();
  double acc[3] = {0.0, 0.0, 0.0};
  for (std::size_t a = 0; a < 3; ++a) {
    const double* plane = m.comp(a);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t i = i_begin_; i < i_end_; ++i) {
        acc[a] += plane[nx * r + i];
      }
    }
  }
  const std::size_t count = rows * (i_end_ - i_begin_);
  ProbeSample s;
  s.t = t;
  s.m = Vec3{acc[0], acc[1], acc[2]} * (1.0 / static_cast<double>(count));
  samples_.push_back(s);
}

std::vector<double> Probe::component(char axis) const {
  std::vector<double> out(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    switch (axis) {
      case 'x': out[i] = samples_[i].m.x; break;
      case 'y': out[i] = samples_[i].m.y; break;
      case 'z': out[i] = samples_[i].m.z; break;
      default: SW_REQUIRE(false, "axis must be x, y or z");
    }
  }
  return out;
}

std::vector<double> Probe::times() const {
  std::vector<double> out(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) out[i] = samples_[i].t;
  return out;
}

void Probe::clear() {
  samples_.clear();
  next_index_ = 0;
}

}  // namespace sw::mag
