// Reverse-mode automatic differentiation over Matrix values: the tape the
// tests' oracle runs on. Test-only: production trains and infers without it
// (src/nn/batched.h), and no target under src/, bench/ or tools/ links it.
//
// A Tensor is a cheap handle (intrusively refcounted pointer) to a graph
// node. Operations in ops.h build the graph eagerly; Backward() on a scalar
// tensor runs a topological sweep that accumulates gradients into every node
// reachable from it that requires a gradient. This mirrors the define-by-run
// style of the PyTorch implementation the paper used.
//
// Node arena
// ----------
// Graph nodes are recycled through a thread-local freelist: releasing the
// last handle to a graph returns every node to the freelist of the releasing
// thread (iteratively — no recursion, so arbitrarily deep BPTT chains are
// fine), and node creation pops the freelist instead of calling the
// allocator. Recycled nodes keep the capacity of their value/grad/saved
// matrices, so in steady state a training step performs O(1) allocator calls
// instead of one (shared_ptr control block + matrix buffer + closure) per op.
// Backward functions are plain function pointers with their payloads stored
// in the node itself (saved/aux0/aux_index), never heap-allocated closures.
//
// Threading
// ---------
// The tape keeps three pieces of cross-thread state:
//
//   * `g_grad_enabled` is thread_local: each thread carries its own NoGradGuard
//     nesting.
//   * `g_sequence` (node creation order) is a std::atomic, so node creation —
//     and therefore any op — is safe from any number of threads at once.
//   * The node freelist is thread_local and node refcounts are atomic: a node
//     created on one thread and released on another is simply recycled into
//     the releasing thread's freelist.
//
// Everything else is per-node and unsynchronized: Backward() mutates shared
// node state (grad, visited), so one graph runs back on one thread.
//
// Enforcement: tools/lint's no-raw-tensor-node-new rule rejects any
// `new`/`delete` of a TensorNode outside tensor.cc, so every node goes
// through AcquireNode/RecycleTree and the freelist accounting can never be
// bypassed.
#ifndef TESTS_TESTING_TENSOR_H_
#define TESTS_TESTING_TENSOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/nn/matrix.h"

namespace deeprest {

struct TensorNode;

namespace detail {
// Iteratively releases a whole subgraph whose refcounts dropped to zero,
// returning nodes to the calling thread's freelist.
void RecycleTree(TensorNode* root);
// Pops a fresh node off the freelist (or allocates); transient fields are
// reset, value/grad/saved keep their capacity.
TensorNode* AcquireNode();
}  // namespace detail

// Backward functions are plain function pointers: all per-op state lives in
// the TensorNode (parents, saved, aux0, aux_index), so building a node never
// heap-allocates a closure.
using BackwardFn = void (*)(TensorNode&);

class Tensor {
 public:
  Tensor() = default;
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept : node_(other.node_) { other.node_ = nullptr; }
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  // Leaf tensor holding a constant value (no gradient).
  static Tensor Constant(Matrix value);
  // Constant leaf with a (rows x cols) value buffer recycled from the arena;
  // entries are unspecified — the caller fills them via mutable_value().
  // Preferred over Constant() in hot loops: no Matrix allocation.
  static Tensor NewConstant(size_t rows, size_t cols);
  // Leaf tensor participating in optimization (gradient is accumulated).
  static Tensor Parameter(Matrix value);

  // Interior node produced by an op. The value buffer is recycled and shaped
  // (rows x cols) with unspecified contents; the op fills it in. Parent
  // links and the backward fn are attached only when some parent tracks
  // gradients (and gradients are enabled on this thread).
  template <typename... Parents>
  static Tensor NewOp(size_t rows, size_t cols, const char* name, BackwardFn backward,
                      const Parents&... parents);
  // Same, for a dynamic parent list.
  static Tensor NewOpN(size_t rows, size_t cols, const char* name, BackwardFn backward,
                       const std::vector<Tensor>& parents);

  bool defined() const { return node_ != nullptr; }
  // Lvalue-only: binding the returned reference to a temporary Tensor's
  // value would dangle once the temporary releases its node.
  const Matrix& value() const&;
  Matrix value() &&;
  Matrix& mutable_value();
  const Matrix& grad() const;
  Matrix& mutable_grad();
  bool requires_grad() const;
  const char* op_name() const;
  size_t rows() const { return value().rows(); }
  size_t cols() const { return value().cols(); }

  // Scalar convenience accessor; requires a 1x1 tensor.
  float scalar() const;

  // Runs reverse-mode differentiation from this (scalar) tensor. Seeds the
  // gradient with 1 and accumulates into all parameters/leaves that require
  // gradients. Gradients from earlier Backward() calls are kept (accumulate
  // semantics); call ZeroGradTree or the optimizer's ZeroGrad between steps.
  void Backward() const;

  // Detaches the value into a fresh constant leaf (used to truncate BPTT).
  Tensor Detach() const;

  TensorNode* node() const { return node_; }
  bool SameNode(const Tensor& other) const { return node_ == other.node_; }

 private:
  friend void detail::RecycleTree(TensorNode* root);
  // Takes ownership of one reference.
  explicit Tensor(TensorNode* node) : node_(node) {}
  static void Retain(TensorNode* node);
  static void Release(TensorNode* node);
  TensorNode* node_ = nullptr;
};

struct TensorNode {
  Matrix value;
  Matrix grad;  // Lazily sized on first accumulation.
  std::vector<Tensor> parents;
  // Forward intermediates stashed for fused backward passes (e.g. the GRU
  // gates). Capacity survives recycling; use EnsureSaved to size it.
  std::vector<Matrix> saved;
  BackwardFn backward = nullptr;  // Null for leaves.
  const char* op_name = "leaf";
  uint64_t sequence = 0;   // Creation order, used for graph-size tests.
  float aux0 = 0.0f;       // Small op payloads (Affine alpha, pinball target, ...).
  size_t aux_index = 0;    // Index payload (RowAsColumn row, expert index, ...).
  bool requires_grad = false;
  bool visited = false;    // Scratch flag for the backward sweep.
  std::atomic<uint32_t> refs{0};

  // Ensures grad has the right shape (zeroing it if it had to be reshaped)
  // and accumulates delta into it.
  void AccumulateGrad(const Matrix& delta);
  void AccumulateGradScaled(const Matrix& delta, float scale);
  void EnsureGrad();
  // Grows `saved` to at least n slots (existing matrices keep capacity).
  void EnsureSaved(size_t n) {
    if (saved.size() < n) {
      saved.resize(n);
    }
  }
};

inline Tensor::Tensor(const Tensor& other) : node_(other.node_) { Retain(node_); }

inline Tensor& Tensor::operator=(const Tensor& other) {
  if (node_ != other.node_) {
    TensorNode* old = node_;
    node_ = other.node_;
    Retain(node_);
    Release(old);
  }
  return *this;
}

inline Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    TensorNode* old = node_;
    node_ = other.node_;
    other.node_ = nullptr;
    Release(old);
  }
  return *this;
}

inline Tensor::~Tensor() { Release(node_); }

inline void Tensor::Retain(TensorNode* node) {
  if (node != nullptr) {
    node->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void Tensor::Release(TensorNode* node) {
  if (node != nullptr && node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    detail::RecycleTree(node);
  }
}

// Number of nodes created since process start; useful for graph-size tests.
uint64_t TensorNodesCreated();

// Heap bytes the calling thread's node freelist pins: the nodes plus the
// capacity of their matrices. Never above kMaxTensorPoolBytes (see tensor.cc).
size_t TensorPoolBytes();
constexpr size_t kMaxTensorPoolBytes = size_t{32} << 20;

// RAII guard that disables gradient tracking on the current thread. Ops
// executed under the guard produce constant tensors with no parent links,
// which keeps long inference runs O(1) in graph memory.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  static bool GradEnabled();

 private:
  bool previous_;
};

template <typename... Parents>
Tensor Tensor::NewOp(size_t rows, size_t cols, const char* name, BackwardFn backward,
                     const Parents&... parents) {
  TensorNode* node = detail::AcquireNode();
  node->value.SetShape(rows, cols);
  node->op_name = name;
  if (NoGradGuard::GradEnabled() && (parents.requires_grad() || ...)) {
    node->requires_grad = true;
    node->backward = backward;
    node->parents.reserve(sizeof...(parents));
    (node->parents.push_back(parents), ...);
  }
  return Tensor(node);
}

}  // namespace deeprest

#endif  // TESTS_TESTING_TENSOR_H_
