#include "fio/propagator_io.hpp"

namespace femto::fio {

void write_propagator(File& f, const std::string& name,
                      const SpinorField<double>& prop,
                      const PropagatorMeta& meta) {
  const std::string base = "/prop/" + name;
  const auto& g = prop.geom();
  f.write_f64(base + "/field", prop.data(),
              static_cast<std::size_t>(prop.reals()),
              {prop.l5(), prop.sites(), kNs, kNc, 2});
  f.write_i64(base + "/extents",
              {g.extent(0), g.extent(1), g.extent(2), g.extent(3),
               prop.l5(), static_cast<std::int64_t>(prop.subset())});
  f.set_attr(base, "ensemble", meta.ensemble);
  f.set_attr_f64(base, "config_id", static_cast<double>(meta.config_id));
  f.set_attr_f64(base, "mf", meta.mf);
  f.set_attr_f64(base, "residual", meta.residual);
}

PropagatorMeta read_propagator(const File& f, const std::string& name,
                               SpinorField<double>& prop) {
  const std::string base = "/prop/" + name;
  const auto ext = f.read_i64(base + "/extents");
  const auto& g = prop.geom();
  if (ext.size() != 6 || ext[0] != g.extent(0) || ext[1] != g.extent(1) ||
      ext[2] != g.extent(2) || ext[3] != g.extent(3) ||
      ext[4] != prop.l5() ||
      ext[5] != static_cast<std::int64_t>(prop.subset()))
    throw IoError("propagator geometry mismatch for " + name);
  f.read_f64(base + "/field", prop.data(),
             static_cast<std::size_t>(prop.reals()));

  PropagatorMeta meta;
  meta.ensemble = f.attr(base, "ensemble").value_or("");
  meta.config_id = static_cast<std::int64_t>(f.attr_f64(base, "config_id"));
  meta.l5 = prop.l5();
  meta.mf = f.attr_f64(base, "mf");
  meta.residual = f.attr_f64(base, "residual");
  return meta;
}

void write_gauge(File& f, const std::string& name,
                 const GaugeField<double>& u, double plaquette_value) {
  const std::string base = "/gauge/" + name;
  const auto& g = u.geom();
  f.write_f64(base + "/links", u.data(),
              static_cast<std::size_t>(u.bytes()) / sizeof(double),
              {4, g.volume(), kNc, kNc, 2});
  f.write_i64(base + "/extents",
              {g.extent(0), g.extent(1), g.extent(2), g.extent(3)});
  f.set_attr_f64(base, "plaquette", plaquette_value);
}

double read_gauge(const File& f, const std::string& name,
                  GaugeField<double>& u) {
  const std::string base = "/gauge/" + name;
  const auto ext = f.read_i64(base + "/extents");
  const auto& g = u.geom();
  if (ext.size() != 4 || ext[0] != g.extent(0) || ext[1] != g.extent(1) ||
      ext[2] != g.extent(2) || ext[3] != g.extent(3))
    throw IoError("gauge geometry mismatch for " + name);
  f.read_f64(base + "/links", u.data(),
             static_cast<std::size_t>(u.bytes()) / sizeof(double));
  return f.attr_f64(base, "plaquette");
}

void write_correlator(File& f, const std::string& name,
                      const std::vector<double>& c_t,
                      const std::string& description) {
  const std::string base = "/corr/" + name;
  f.write_f64(base + "/data", c_t);
  f.set_attr(base, "description", description);
}

std::vector<double> read_correlator(const File& f, const std::string& name) {
  return f.read_f64("/corr/" + name + "/data");
}

}  // namespace femto::fio
