#include "tests/testing/tensor.h"

#include <cassert>
#include <utility>

namespace deeprest {

namespace {

std::atomic<uint64_t> g_sequence{0};

// Freelist of recycled nodes, one per thread. Nodes keep the capacity of
// their value/grad/saved matrices across lives, so steady-state tape
// training (the oracle's graphs) performs no allocator calls for graph
// construction.
//
// The pool is bounded by the bytes it pins, not by its node count. A pooled
// node keeps the largest matrices it ever held, so under a count cap the
// nodes of a long-lived thread creep up to the biggest value ever recycled
// through them (attention matrices, a model's weights): four Learn + destroy
// cycles of the paper-size model (hidden 12, 76 experts, 69 features) pooled
// 350 MB on one thread that way when DeepRest trained on the tape. A node above kMaxPooledNodeBytes is freed instead of
// pooled, and kMaxTensorPoolBytes (tensor.h) holds a 48-step chunk's graph
// of a model that size (about 14k nodes and 20 MB), so tape training keeps
// reusing every node of its graph.
//
// This file is the ONLY translation unit allowed to `new`/`delete` a
// TensorNode (tools/lint rule no-raw-tensor-node-new, allowlisted here):
// a node allocated anywhere else would skip the freelist accounting and
// break the O(1)-allocations-per-step guarantee.
constexpr size_t kMaxPooledNodeBytes = size_t{16} << 10;

// Heap bytes a node pins while pooled: the node itself plus the capacity of
// everything it owns. Capacities do not change while a node sits in the
// pool, so the pool stores the figure with the node at release and acquire
// subtracts that stored value instead of walking the node again.
size_t NodeBytes(const TensorNode& node) {
  size_t bytes = sizeof(TensorNode) + node.parents.capacity() * sizeof(Tensor) +
                 node.saved.capacity() * sizeof(Matrix) +
                 (node.value.capacity() + node.grad.capacity()) * sizeof(float);
  for (const Matrix& m : node.saved) {
    bytes += m.capacity() * sizeof(float);
  }
  return bytes;
}

struct NodePool {
  struct Pooled {
    TensorNode* node;
    size_t bytes;  // NodeBytes(*node) when it was pooled
  };
  std::vector<Pooled> free;
  size_t bytes = 0;  // Pooled::bytes summed over `free`
  ~NodePool();
};

// Trivially-destructible flag that stays readable after the pool's own
// thread_local destructor has run (releases during late thread teardown then
// fall back to plain delete).
thread_local bool g_pool_destroyed = false;

NodePool& Pool() {
  thread_local NodePool pool;
  return pool;
}

NodePool::~NodePool() {
  g_pool_destroyed = true;
  for (const Pooled& pooled : free) {
    delete pooled.node;
  }
  free.clear();
}

}  // namespace

namespace detail {

TensorNode* AcquireNode() {
  NodePool& pool = Pool();
  TensorNode* node;
  if (!pool.free.empty()) {
    node = pool.free.back().node;
    pool.bytes -= pool.free.back().bytes;
    pool.free.pop_back();
    node->grad.SetShape(0, 0);  // A recycled grad must not leak into this life.
    node->backward = nullptr;
    node->op_name = "leaf";
    node->aux0 = 0.0f;
    node->aux_index = 0;
    node->requires_grad = false;
    node->visited = false;
  } else {
    node = new TensorNode;
  }
  node->refs.store(1, std::memory_order_relaxed);
  node->sequence = g_sequence.fetch_add(1, std::memory_order_relaxed);
  return node;
}

void RecycleTree(TensorNode* root) {
  // Iterative teardown: dropping a 50k-step BPTT chain must not recurse.
  // Parent handles are detached by hand so their destructors never run the
  // recursive Release path.
  std::vector<TensorNode*> work;
  work.push_back(root);
  while (!work.empty()) {
    TensorNode* n = work.back();
    work.pop_back();
    for (Tensor& p : n->parents) {
      TensorNode* pn = p.node_;
      p.node_ = nullptr;
      if (pn != nullptr && pn->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        work.push_back(pn);
      }
    }
    n->parents.clear();
    if (g_pool_destroyed) {
      delete n;
      continue;
    }
    NodePool& pool = Pool();
    const size_t bytes = NodeBytes(*n);
    if (bytes <= kMaxPooledNodeBytes && pool.bytes + bytes <= kMaxTensorPoolBytes) {
      pool.free.push_back({n, bytes});
      pool.bytes += bytes;
    } else {
      delete n;
    }
  }
}

}  // namespace detail

uint64_t TensorNodesCreated() { return g_sequence.load(std::memory_order_relaxed); }

size_t TensorPoolBytes() { return g_pool_destroyed ? 0 : Pool().bytes; }

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) { g_grad_enabled = false; }

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool NoGradGuard::GradEnabled() { return g_grad_enabled; }

Tensor Tensor::Constant(Matrix value) {
  TensorNode* node = detail::AcquireNode();
  node->value = std::move(value);
  return Tensor(node);
}

Tensor Tensor::NewConstant(size_t rows, size_t cols) {
  TensorNode* node = detail::AcquireNode();
  node->value.SetShape(rows, cols);
  return Tensor(node);
}

Tensor Tensor::Parameter(Matrix value) {
  TensorNode* node = detail::AcquireNode();
  node->value = std::move(value);
  node->requires_grad = true;
  return Tensor(node);
}

Tensor Tensor::NewOpN(size_t rows, size_t cols, const char* name, BackwardFn backward,
                      const std::vector<Tensor>& parents) {
  TensorNode* node = detail::AcquireNode();
  node->value.SetShape(rows, cols);
  node->op_name = name;
  bool needs_grad = false;
  if (NoGradGuard::GradEnabled()) {
    for (const Tensor& p : parents) {
      needs_grad = needs_grad || p.requires_grad();
    }
  }
  if (needs_grad) {
    node->requires_grad = true;
    node->backward = backward;
    node->parents = parents;
  }
  return Tensor(node);
}

const Matrix& Tensor::value() const& {
  assert(node_);
  return node_->value;
}

Matrix Tensor::value() && {
  assert(node_);
  return node_->value;
}

Matrix& Tensor::mutable_value() {
  assert(node_);
  return node_->value;
}

const Matrix& Tensor::grad() const {
  assert(node_);
  return node_->grad;
}

Matrix& Tensor::mutable_grad() {
  assert(node_);
  return node_->grad;
}

bool Tensor::requires_grad() const { return node_ && node_->requires_grad; }

const char* Tensor::op_name() const {
  assert(node_);
  return node_->op_name;
}

float Tensor::scalar() const {
  assert(node_ && node_->value.rows() == 1 && node_->value.cols() == 1);
  return node_->value.At(0, 0);
}

void TensorNode::EnsureGrad() {
  if (!grad.SameShape(value)) {
    grad.SetShape(value.rows(), value.cols());
    grad.Zero();
  }
}

void TensorNode::AccumulateGrad(const Matrix& delta) {
  EnsureGrad();
  grad.Add(delta);
}

void TensorNode::AccumulateGradScaled(const Matrix& delta, float scale) {
  EnsureGrad();
  grad.AddScaled(delta, scale);
}

void Tensor::Backward() const {
  assert(node_);
  assert(node_->value.rows() == 1 && node_->value.cols() == 1 &&
         "Backward() must start from a scalar loss");

  // Iterative post-order DFS producing a topological order. Recursion would
  // blow the stack on long BPTT chains, so an explicit stack is used.
  std::vector<TensorNode*> order;
  std::vector<std::pair<TensorNode*, size_t>> stack;
  if (!node_->visited && node_->requires_grad) {
    stack.emplace_back(node_, 0);
    node_->visited = true;
  }
  while (!stack.empty()) {
    auto& [n, idx] = stack.back();
    if (idx < n->parents.size()) {
      TensorNode* parent = n->parents[idx].node();
      ++idx;
      if (parent != nullptr && parent->requires_grad && !parent->visited) {
        parent->visited = true;
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(n);
      stack.pop_back();
    }
  }

  // Interior-node gradients are transient scratch space: zero them so that
  // repeated Backward() calls stay correct. Leaf gradients (parameters)
  // accumulate across calls, matching the usual autograd contract.
  for (TensorNode* n : order) {
    if (n->backward) {
      n->EnsureGrad();
      n->grad.Zero();
    }
  }

  // Seed d(loss)/d(loss) = 1 and sweep in reverse topological order.
  node_->EnsureGrad();
  node_->grad.At(0, 0) += 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorNode* n = *it;
    n->visited = false;  // Reset for the next Backward() call.
    if (n->backward) {
      n->backward(*n);
    }
  }
}

Tensor Tensor::Detach() const {
  assert(node_);
  Tensor out = NewConstant(node_->value.rows(), node_->value.cols());
  const Matrix& src = node_->value;
  Matrix& dst = out.mutable_value();
  for (size_t i = 0, e = src.size(); i < e; ++i) {
    dst[i] = src[i];
  }
  return out;
}

}  // namespace deeprest
