#include "sim/network.h"

#include <algorithm>

namespace planet {

Network::Network(Simulator* sim, Rng rng)
    : sim_(sim),
      rng_(rng),
      messages_sent_(0),
      messages_dropped_(0),
      messages_retransmitted_(0) {
  PLANET_CHECK(sim != nullptr);
  default_cell_ = Resolve(LinkParams{});
}

Network::LinkState Network::Resolve(const LinkParams& params) {
  LinkState state;
  state.median_draw =
      std::max<double>(1.0, static_cast<double>(params.median_one_way));
  state.sigma = params.sigma;
  state.min_latency = params.min_latency;
  state.loss_prob = params.loss_prob;
  state.rto = params.retransmit_timeout > 0 ? params.retransmit_timeout
                                            : 4 * params.median_one_way;
  return state;
}

void Network::EnsureDc(DcId dc) {
  PLANET_CHECK_MSG(dc >= 0, "dc=" << dc);
  if (dc < dim_) return;
  DcId new_dim = dc + 1;
  std::vector<LinkState> next(
      static_cast<size_t>(new_dim) * static_cast<size_t>(new_dim),
      default_cell_);
  for (DcId s = 0; s < dim_; ++s) {
    for (DcId d = 0; d < dim_; ++d) {
      next[static_cast<size_t>(s) * static_cast<size_t>(new_dim) +
           static_cast<size_t>(d)] = Cell(s, d);
    }
  }
  links_ = std::move(next);
  degradation_.resize(static_cast<size_t>(new_dim));
  dim_ = new_dim;
}

void Network::RegisterNode(NodeId node, DcId dc) {
  PLANET_CHECK_MSG(node == static_cast<NodeId>(node_dc_.size()),
                   "nodes must be registered densely; got " << node);
  EnsureDc(dc);
  node_dc_.push_back(dc);
  node_up_.push_back(1);
}

void Network::SetNodeUp(NodeId node, bool up) {
  PLANET_CHECK_MSG(node >= 0 && node < static_cast<NodeId>(node_up_.size()),
                   "unregistered node " << node);
  node_up_[static_cast<size_t>(node)] = up ? 1 : 0;
}

bool Network::NodeUp(NodeId node) const {
  PLANET_CHECK_MSG(node >= 0 && node < static_cast<NodeId>(node_up_.size()),
                   "unregistered node " << node);
  return node_up_[static_cast<size_t>(node)] != 0;
}

DcId Network::DcOf(NodeId node) const {
  PLANET_CHECK_MSG(node >= 0 && node < static_cast<NodeId>(node_dc_.size()),
                   "unregistered node " << node);
  return node_dc_[static_cast<size_t>(node)];
}

void Network::SetLink(DcId a, DcId b, const LinkParams& params) {
  SetDirectedLink(a, b, params);
  SetDirectedLink(b, a, params);
}

void Network::SetDirectedLink(DcId src, DcId dst, const LinkParams& params) {
  EnsureDc(std::max(src, dst));
  LinkState& cell = Cell(src, dst);
  bool partitioned = cell.partitioned;  // orthogonal state, survives SetLink
  cell = Resolve(params);
  cell.partitioned = partitioned;
}

void Network::SetPartitioned(DcId a, DcId b, bool partitioned) {
  EnsureDc(std::max(a, b));
  Cell(a, b).partitioned = partitioned;
  Cell(b, a).partitioned = partitioned;
}

void Network::SetDegradation(DcId dc, const DcDegradation& degradation) {
  EnsureDc(dc);
  DegradationState& state = degradation_[static_cast<size_t>(dc)];
  state.active = degradation.extra_median > 0;
  state.extra_median = static_cast<double>(degradation.extra_median);
  state.extra_sigma = std::max(0.01, degradation.extra_sigma);
}

void Network::ClearDegradation(DcId dc) {
  if (dc >= 0 && dc < dim_) {
    degradation_[static_cast<size_t>(dc)] = DegradationState{};
  }
}

Duration Network::SampleCell(const LinkState& link, DcId src, DcId dst) {
  double delay = rng_.Lognormal(link.median_draw, link.sigma);
  // Degradation models wide-area ingress/egress congestion at a DC; traffic
  // that never leaves the DC is unaffected. Draw order (src then dst, only
  // when active) is part of the determinism contract.
  if (src != dst) {
    const DegradationState& s = degradation_[static_cast<size_t>(src)];
    if (s.active) delay += rng_.Lognormal(s.extra_median, s.extra_sigma);
    const DegradationState& d = degradation_[static_cast<size_t>(dst)];
    if (d.active) delay += rng_.Lognormal(d.extra_median, d.extra_sigma);
  }
  return std::max(static_cast<Duration>(delay), link.min_latency);
}

Duration Network::SampleLatency(DcId src, DcId dst) {
  EnsureDc(std::max(src, dst));
  return SampleCell(Cell(src, dst), src, dst);
}

bool Network::PrepareSend(NodeId src, NodeId dst, Duration* delay) {
  DcId src_dc = DcOf(src);
  DcId dst_dc = DcOf(dst);
  ++messages_sent_;

  if (!NodeUp(src) || !NodeUp(dst)) {
    ++messages_dropped_;
    return false;
  }
  // RegisterNode grew the matrices to cover both DCs.
  const LinkState& link = Cell(src_dc, dst_dc);
  if (link.partitioned) {
    ++messages_dropped_;
    return false;
  }
  Duration d = SampleCell(link, src_dc, dst_dc);
  // Reliable channel: "loss" delays the message by the retransmission
  // timeout instead of dropping it (possibly several times in a row).
  if (link.loss_prob > 0.0) {
    while (rng_.Bernoulli(link.loss_prob)) {
      d += link.rto;
      ++messages_retransmitted_;
    }
  }
  *delay = d;
  return true;
}

}  // namespace planet
