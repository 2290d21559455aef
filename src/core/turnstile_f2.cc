#include "core/turnstile_f2.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "hash/kwise_bank.h"
#include "hash/rng.h"
#include "sketch/median_of_means.h"
#include "util/check.h"
#include "util/serialize.h"

namespace cyclestream {

// --- TurnstileF2FourCycleCounter ------------------------------------------

void TurnstileF2FourCycleCounter::StartPass(int pass,
                                            std::size_t stream_length) {
  inner_.StartPass(pass, stream_length);
}

void TurnstileF2FourCycleCounter::ProcessUpdate(int pass,
                                                const TurnstileUpdate& u,
                                                std::size_t position) {
  (void)pass;
  (void)position;
  if (u.op == TurnstileOp::kInsert) {
    inner_.Insert(u.edge);
  } else {
    inner_.Delete(u.edge);
  }
}

void TurnstileF2FourCycleCounter::ProcessUpdateBlock(
    int pass, std::span<const TurnstileUpdate> updates,
    std::size_t base_position) {
  (void)pass;
  (void)base_position;
  edge_scratch_.resize(updates.size());
  sign_scratch_.resize(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    edge_scratch_[i] = updates[i].edge;
    sign_scratch_[i] = TurnstileSign(updates[i].op);
  }
  inner_.ProcessSignedEdgeBlock(edge_scratch_, sign_scratch_);
}

void TurnstileF2FourCycleCounter::EndPass(int pass) { inner_.EndPass(pass); }

bool TurnstileF2FourCycleCounter::Rescale(double factor) {
  inner_.Rescale(factor);
  return true;
}

bool TurnstileF2FourCycleCounter::SaveState(StateWriter& w) const {
  return inner_.SaveState(w);
}

bool TurnstileF2FourCycleCounter::RestoreState(StateReader& r) {
  return inner_.RestoreState(r);
}

bool TurnstileF2FourCycleCounter::MergeFrom(
    const TurnstileStreamAlgorithm& other) {
  if (other.CheckpointId() != CheckpointId()) return false;
  const auto& rhs = static_cast<const TurnstileF2FourCycleCounter&>(other);
  return inner_.MergeFrom(rhs.inner_);
}

// --- TurnstileF2TriangleCounter -------------------------------------------

namespace {

// Derives the copy counts left to the counter.
TurnstileF2TriangleCounter::Params Normalized(
    TurnstileF2TriangleCounter::Params params) {
  CHECK_GE(params.num_vertices, 2u);
  CHECK_GT(params.base.epsilon, 0.0);
  const double eps = params.base.epsilon;
  if (params.copies_per_group <= 0) {
    params.copies_per_group = std::max(
        static_cast<int>(std::min(512.0, std::ceil(2.0 / (eps * eps)))), 1);
  }
  params.groups = std::max(params.groups, 1);
  return params;
}

std::size_t NumCopies(const TurnstileF2TriangleCounter::Params& params) {
  return static_cast<std::size_t>(params.groups * params.copies_per_group);
}

}  // namespace

std::shared_ptr<const TurnstileF2TriangleCounter::Signs>
TurnstileF2TriangleCounter::MakeSigns(const Params& raw_params) {
  const Params params = Normalized(raw_params);
  const std::size_t c = NumCopies(params);
  std::uint64_t seed = params.base.seed ^ 0x54524933ULL;  // "TRI3"
  std::vector<std::uint64_t> seeds(c);
  for (std::size_t i = 0; i < c; ++i) seeds[i] = SplitMix64(seed);
  auto sigma = std::make_shared<Signs>(params.num_vertices * c);
  KWiseHashBank(/*k=*/6, seeds).SignTable(params.num_vertices, sigma->data());
  return sigma;
}

TurnstileF2TriangleCounter::TurnstileF2TriangleCounter(
    const Params& params, std::shared_ptr<const Signs> sigma)
    : params_(Normalized(params)),
      num_copies_(NumCopies(params_)),
      sigma_(sigma != nullptr ? std::move(sigma) : MakeSigns(params_)),
      z_(num_copies_, 0.0) {
  CHECK_EQ(sigma_->size(), params_.num_vertices * num_copies_);
}

void TurnstileF2TriangleCounter::Apply(const Edge& e, double sign) {
  const std::size_t c = num_copies_;
  const signed char* su = sigma_->data() + static_cast<std::size_t>(e.u) * c;
  const signed char* sv = sigma_->data() + static_cast<std::size_t>(e.v) * c;
  for (std::size_t i = 0; i < c; ++i) {
    z_[i] += sign * static_cast<double>(su[i]) * static_cast<double>(sv[i]);
  }
}

void TurnstileF2TriangleCounter::StartPass(int pass,
                                           std::size_t stream_length) {
  CHECK_EQ(pass, 0);
  (void)stream_length;
}

void TurnstileF2TriangleCounter::ProcessUpdate(int pass,
                                               const TurnstileUpdate& u,
                                               std::size_t position) {
  (void)pass;
  (void)position;
  Apply(u.edge, TurnstileSign(u.op));
}

void TurnstileF2TriangleCounter::EndPass(int pass) { (void)pass; }

Estimate TurnstileF2TriangleCounter::Result() const {
  std::vector<double> cubes = z_;
  for (double& z : cubes) z = z * z * z / 6.0;
  Estimate result;
  result.value = std::max(
      0.0, MedianOfMeans(cubes,
                         static_cast<std::size_t>(params_.groups)));
  // One Z word per copy plus the byte-packed ±1 sign cache.
  const std::size_t n = params_.num_vertices;
  result.space_words = num_copies_ * (1 + n / 8 + 1);
  return result;
}

bool TurnstileF2TriangleCounter::Rescale(double factor) {
  for (double& z : z_) z *= factor;
  return true;
}

bool TurnstileF2TriangleCounter::SaveState(StateWriter& w) const {
  // Only the Z counters are stream-dependent; the sign cache is
  // constructor-derived from the fingerprinted seed.
  w.U32(params_.num_vertices);
  w.Size(num_copies_);
  w.I64(params_.groups);
  w.Double(params_.base.epsilon);
  w.U64(params_.base.seed);
  w.Vec(z_);
  return true;
}

bool TurnstileF2TriangleCounter::RestoreState(StateReader& r) {
  if (r.U32() != params_.num_vertices || r.Size() != num_copies_ ||
      r.I64() != params_.groups || r.Double() != params_.base.epsilon ||
      r.U64() != params_.base.seed) {
    return r.Fail();
  }
  std::vector<double> z;
  if (!r.Vec(&z)) return false;
  if (z.size() != z_.size()) return r.Fail();
  // A non-finite counter can only come from corruption and would poison
  // the estimate.
  for (double x : z) {
    if (!std::isfinite(x)) return r.Fail();
  }
  z_ = std::move(z);
  return true;
}

bool TurnstileF2TriangleCounter::MergeFrom(
    const TurnstileStreamAlgorithm& other) {
  if (other.CheckpointId() != CheckpointId()) return false;
  const auto& rhs = static_cast<const TurnstileF2TriangleCounter&>(other);
  if (rhs.params_.num_vertices != params_.num_vertices ||
      rhs.num_copies_ != num_copies_ ||
      rhs.params_.groups != params_.groups ||
      rhs.params_.base.epsilon != params_.base.epsilon ||
      rhs.params_.base.seed != params_.base.seed) {
    return false;
  }
  for (std::size_t i = 0; i < z_.size(); ++i) z_[i] += rhs.z_[i];
  return true;
}

}  // namespace cyclestream
