#include "src/nn/layers.h"

#include <cassert>
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

Tensor ParameterStore::Create(const std::string& name, Matrix init) {
  Tensor t = Tensor::Parameter(std::move(init));
  entries_.push_back({name, t});
  return t;
}

size_t ParameterStore::TotalParameters() const {
  size_t total = 0;
  for (const auto& e : entries_) {
    total += e.tensor.value().size();
  }
  return total;
}

Tensor ParameterStore::Find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) {
      return e.tensor;
    }
  }
  return Tensor();
}

void ParameterStore::ZeroGrad() {
  for (auto& e : entries_) {
    e.tensor.node()->EnsureGrad();
    e.tensor.mutable_grad().Zero();
  }
}

Linear::Linear(ParameterStore& store, const std::string& name, size_t in_dim, size_t out_dim,
               Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  weight_ = store.Create(name + ".W", XavierInit(out_dim, in_dim, rng));
  bias_ = store.Create(name + ".b", Matrix(out_dim, 1));
}

Tensor Linear::Forward(const Tensor& x) const {
  assert(x.rows() == in_dim_ && x.cols() == 1);
  return Add(MatMul(weight_, x), bias_);
}

GruCell::GruCell(ParameterStore& store, const std::string& name, size_t in_dim,
                 size_t hidden_dim, Rng& rng)
    : in_dim_(in_dim), hidden_dim_(hidden_dim) {
  wz_ = store.Create(name + ".Wz", XavierInit(hidden_dim, in_dim, rng));
  uz_ = store.Create(name + ".Uz", XavierInit(hidden_dim, hidden_dim, rng));
  bz_ = store.Create(name + ".bz", Matrix(hidden_dim, 1));
  wk_ = store.Create(name + ".Wk", XavierInit(hidden_dim, in_dim, rng));
  uk_ = store.Create(name + ".Uk", XavierInit(hidden_dim, hidden_dim, rng));
  bk_ = store.Create(name + ".bk", Matrix(hidden_dim, 1));
  wh_ = store.Create(name + ".Wh", XavierInit(hidden_dim, in_dim, rng));
  uh_ = store.Create(name + ".Uh", XavierInit(hidden_dim, hidden_dim, rng));
  bh_ = store.Create(name + ".bh", Matrix(hidden_dim, 1));
}

Tensor GruCell::Step(const Tensor& x, const Tensor& h_prev) const {
  assert(x.rows() == in_dim_ && h_prev.rows() == hidden_dim_);
  return FusedGruStep(x, h_prev, wz_, uz_, bz_, wk_, uk_, bk_, wh_, uh_, bh_);
}

Tensor GruCell::InitialState() const { return Tensor::Constant(Matrix(hidden_dim_, 1)); }

std::vector<float> GruCell::FlattenedParameters() const {
  std::vector<float> out;
  for (const Tensor* t : {&wz_, &uz_, &bz_, &wk_, &uk_, &bk_, &wh_, &uh_, &bh_}) {
    const Matrix& m = t->value();
    out.insert(out.end(), m.data(), m.data() + m.size());
  }
  return out;
}

}  // namespace deeprest
