#include "src/nn/layers.h"

#include <cmath>

#include "src/nn/rng.h"

namespace deeprest {

namespace {

// Xavier/Glorot uniform initialization.
Matrix XavierInit(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const float bound = std::sqrt(6.0f / static_cast<float>(rows + cols));
  m.FillUniform(rng, bound);
  return m;
}

}  // namespace

Parameter& ParameterStore::Create(const std::string& name, Matrix init) {
  Matrix grad(init.rows(), init.cols());
  return entries_.emplace_back(Parameter{name, std::move(init), std::move(grad)});
}

size_t ParameterStore::TotalParameters() const {
  size_t total = 0;
  for (const auto& e : entries_) {
    total += e.value.size();
  }
  return total;
}

Parameter* ParameterStore::Find(const std::string& name) {
  for (auto& e : entries_) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

const Parameter* ParameterStore::Find(const std::string& name) const {
  return const_cast<ParameterStore*>(this)->Find(name);
}

void ParameterStore::ZeroGrad() {
  for (auto& e : entries_) {
    e.grad.Zero();
  }
}

Linear::Linear(ParameterStore& store, const std::string& name, size_t in_dim, size_t out_dim,
               Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  weight_ = &store.Create(name + ".W", XavierInit(out_dim, in_dim, rng));
  bias_ = &store.Create(name + ".b", Matrix(out_dim, 1));
}

GruCell::GruCell(ParameterStore& store, const std::string& name, size_t in_dim,
                 size_t hidden_dim, Rng& rng)
    : in_dim_(in_dim), hidden_dim_(hidden_dim) {
  wz_ = &store.Create(name + ".Wz", XavierInit(hidden_dim, in_dim, rng));
  uz_ = &store.Create(name + ".Uz", XavierInit(hidden_dim, hidden_dim, rng));
  bz_ = &store.Create(name + ".bz", Matrix(hidden_dim, 1));
  wk_ = &store.Create(name + ".Wk", XavierInit(hidden_dim, in_dim, rng));
  uk_ = &store.Create(name + ".Uk", XavierInit(hidden_dim, hidden_dim, rng));
  bk_ = &store.Create(name + ".bk", Matrix(hidden_dim, 1));
  wh_ = &store.Create(name + ".Wh", XavierInit(hidden_dim, in_dim, rng));
  uh_ = &store.Create(name + ".Uh", XavierInit(hidden_dim, hidden_dim, rng));
  bh_ = &store.Create(name + ".bh", Matrix(hidden_dim, 1));
}

std::vector<float> GruCell::FlattenedParameters() const {
  std::vector<float> out;
  for (const Parameter* p : {wz_, uz_, bz_, wk_, uk_, bk_, wh_, uh_, bh_}) {
    out.insert(out.end(), p->value.data(), p->value.data() + p->value.size());
  }
  return out;
}

}  // namespace deeprest
