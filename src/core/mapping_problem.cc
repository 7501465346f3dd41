#include "core/mapping_problem.h"

#include <unordered_set>
#include <utility>

namespace tupelo {
namespace {

// True if any distinct non-null value of column `idx` satisfies `pred`.
template <typename Pred>
bool AnyColumnValue(const Relation& rel, size_t idx, Pred pred) {
  for (const Tuple& t : rel.tuples()) {
    if (!t[idx].is_null() && pred(t[idx].atom())) return true;
  }
  return false;
}

bool RelationHasNull(const Relation& rel) {
  for (const Tuple& t : rel.tuples()) {
    for (const Value& v : t.values()) {
      if (v.is_null()) return true;
    }
  }
  return false;
}

}  // namespace

MappingProblem::MappingProblem(
    Database source, Database target, std::unique_ptr<Heuristic> heuristic,
    const FunctionRegistry* registry,
    std::vector<SemanticCorrespondence> correspondences,
    SuccessorConfig config)
    : source_(std::move(source)),
      target_(std::move(target)),
      target_index_(target_),
      heuristic_(std::move(heuristic)),
      registry_(registry),
      correspondences_(std::move(correspondences)),
      config_(config) {
  // Prewarm the lazy fingerprint caches while the problem is still
  // single-threaded: initial_state() hands out a reference to source_, so
  // several search threads may fingerprint the same Database object, and
  // Database's cache (unlike Relation's) is not atomic.
  source_.Fingerprint128();
  target_.Fingerprint128();
}

void MappingProblem::set_metrics(obs::MetricRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    heuristic_evals_ = nullptr;
    heuristic_nanos_ = nullptr;
    heuristic_cache_hits_ = nullptr;
    successor_nanos_ = nullptr;
    expand_cache_hits_ = nullptr;
    expand_cache_misses_ = nullptr;
    expand_cache_evictions_ = nullptr;
    cow_copies_ = nullptr;
    relations_shared_ = nullptr;
    tnf_bytes_ = nullptr;
    tnf_encodes_ = nullptr;
    return;
  }
  std::string name(heuristic_->name());
  heuristic_evals_ = &metrics->GetCounter("heuristic." + name + ".evals");
  heuristic_nanos_ = &metrics->GetCounter("heuristic." + name + ".nanos");
  heuristic_cache_hits_ = &metrics->GetCounter("heuristic.cache_hits");
  successor_nanos_ = &metrics->GetCounter("phase.successors.nanos");
  expand_cache_hits_ = &metrics->GetCounter("expand.cache_hits");
  expand_cache_misses_ = &metrics->GetCounter("expand.cache_misses");
  expand_cache_evictions_ = &metrics->GetCounter("expand.cache_evictions");
  cow_copies_ = &metrics->GetCounter("state.cow_copies");
  relations_shared_ = &metrics->GetCounter("state.relations_shared");
  tnf_bytes_ = &metrics->GetCounter("state.tnf_bytes");
  tnf_encodes_ = &metrics->GetCounter("state.tnf_encodes");
  heuristic_->BindMetrics(metrics);
}

void MappingProblem::TrimCaches() const {
  {
    std::lock_guard<std::mutex> lock(expand_mu_);
    expand_cache_.clear();
    expand_cache_index_.clear();
    expand_cache_states_.store(0, std::memory_order_relaxed);
  }
  for (EstimateShard& shard : estimate_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.cache.clear();
  }
}

std::vector<Op> MappingProblem::CandidateOps(const Database& state) const {
  std::vector<Op> ops;
  const bool prune = config_.prune;
  const TargetSymbolIndex& ts = target_index_;
  using Col = TargetSymbolIndex::Column;
  const std::vector<std::string>& target_rels = ts.symbols(Col::kRel);
  const std::vector<std::string>& target_atts = ts.symbols(Col::kAtt);

  // §2.3's example rule: "if the current search state has all attribute
  // names occurring in the target state, there is no need to explore
  // applications of the attribute renaming operator" — i.e. renames are
  // pruned as a class once nothing is missing, but an individual rename
  // may move even a target-named element (rename chains/swaps need this).
  const bool any_att_missing = prune && !ts.HoldsAllAttributes(state);
  bool any_rel_missing = false;
  for (const std::string& rel_name : target_rels) {
    if (!state.HasRelation(rel_name)) {
      any_rel_missing = true;
      break;
    }
  }

  for (const auto& [rname, relp] : state.relations()) {
    const Relation& rel = *relp;
    // ρrel: rename this relation to a missing target relation name.
    if (!prune || any_rel_missing) {
      for (const std::string& to : target_rels) {
        if (state.HasRelation(to)) continue;
        ops.push_back(RenameRelOp{rname, to});
      }
    }

    // ↓: demote metadata. Pruned: only when some symbol that is metadata
    // here (an attribute or the relation name) appears among the target's
    // data values — i.e. h2-style evidence that demotion is needed.
    if (!rel.HasAttribute(kDemoteAttrColumn) &&
        !rel.HasAttribute(kDemoteValueColumn)) {
      bool wanted = !prune || ts.Contains(Col::kValue, rname);
      if (!wanted) {
        for (const std::string& attr : rel.attributes()) {
          if (ts.Contains(Col::kValue, attr)) {
            wanted = true;
            break;
          }
        }
      }
      if (wanted) ops.push_back(DemoteOp{rname});
    }

    // λ: apply an articulated complex correspondence wherever its inputs
    // are available and its output is absent.
    for (const SemanticCorrespondence& c : correspondences_) {
      if (rel.HasAttribute(c.output)) continue;
      if (prune && !ts.Contains(Col::kAtt, c.output)) continue;
      bool inputs_ok = true;
      for (const std::string& in : c.inputs) {
        if (!rel.HasAttribute(in)) {
          inputs_ok = false;
          break;
        }
      }
      if (!inputs_ok) continue;
      ops.push_back(ApplyFunctionOp{rname, c.function, c.inputs, c.output});
    }

    // µ: merge. Pruned: only useful when the relation holds nulls (merging
    // null-free tuples only collapses exact duplicates).
    if (rel.size() >= 2) {
      bool has_null = RelationHasNull(rel);
      for (size_t i = 0; i < rel.arity(); ++i) {
        if (prune && !has_null) break;
        ops.push_back(MergeOp{rname, rel.attributes()[i]});
      }
    }

    for (size_t i = 0; i < rel.arity(); ++i) {
      const std::string& attr = rel.attributes()[i];

      // ρatt: rename into a missing target attribute. Pruned as a class
      // when no target attribute is missing anywhere in the state.
      if (!prune || any_att_missing) {
        for (const std::string& to : target_atts) {
          if (rel.HasAttribute(to)) continue;
          ops.push_back(RenameAttrOp{rname, attr, to});
        }
      }

      // π̄: drop a column the target does not mention.
      if (rel.arity() > 1 && (!prune || !ts.Contains(Col::kAtt, attr))) {
        ops.push_back(DropOp{rname, attr});
      }

      // ℘: partition when this column's values name missing target
      // relations.
      if (!prune ||
          AnyColumnValue(rel, i, [&](const std::string& v) {
            return ts.Contains(Col::kRel, v) && !state.HasRelation(v);
          })) {
        ops.push_back(PartitionOp{rname, attr});
      }

      // ↑: promote this column's values to attribute names, paired with
      // every other column as the value source. Pruned: only when some
      // value of this column is a missing target attribute name.
      bool promote_wanted =
          !prune || AnyColumnValue(rel, i, [&](const std::string& v) {
            return ts.Contains(Col::kAtt, v) && !rel.HasAttribute(v);
          });
      if (promote_wanted) {
        for (size_t j = 0; j < rel.arity(); ++j) {
          if (j == i) continue;
          ops.push_back(PromoteOp{rname, attr, rel.attributes()[j]});
        }
      }

      // →: dereference when this column's values name attributes of the
      // relation; the fresh column must be a missing target attribute.
      bool pointer_ok =
          !prune || AnyColumnValue(rel, i, [&](const std::string& v) {
            return rel.HasAttribute(v);
          });
      if (pointer_ok) {
        // Allowed even when another relation already carries `out`; the
        // executor and the dedup filter discard the no-ops.
        for (const std::string& out : target_atts) {
          if (rel.HasAttribute(out)) continue;
          ops.push_back(DereferenceOp{rname, attr, out});
        }
      }
    }
  }

  // ×: Cartesian product of two distinct relations. Pruned: only when some
  // target relation needs attributes from both sides.
  if (state.relation_count() >= 2) {
    const auto& rels = state.relations();
    for (auto li = rels.begin(); li != rels.end(); ++li) {
      for (auto ri = std::next(li); ri != rels.end(); ++ri) {
        const Relation& left = *li->second;
        const Relation& right = *ri->second;
        ProductOp op{left.name(), right.name()};
        if (state.HasRelation(ProductResultName(op))) continue;
        if (prune) {
          bool wanted = false;
          for (const auto& [tname, trel] : target_.relations()) {
            bool uses_left = false;
            bool uses_right = false;
            bool contained_left = true;
            bool contained_right = true;
            for (const std::string& a : trel->attributes()) {
              if (left.HasAttribute(a)) uses_left = true;
              else contained_left = false;
              if (right.HasAttribute(a)) uses_right = true;
              else contained_right = false;
            }
            if (uses_left && uses_right && !contained_left &&
                !contained_right) {
              wanted = true;
              break;
            }
          }
          if (!wanted) continue;
        }
        ops.push_back(std::move(op));
      }
    }
  }

  return ops;
}

std::vector<MappingProblem::SuccessorT> MappingProblem::Expand(
    const Database& state) const {
  obs::ScopedTimer timer(successor_nanos_);
  const Fp128 state_key = state.Fingerprint128();
  const bool cache_on = config_.expand_cache_capacity > 0;

  if (cache_on) {
    std::lock_guard<std::mutex> lock(expand_mu_);
    auto hit = expand_cache_index_.find(state_key);
    if (hit != expand_cache_index_.end()) {
      expand_cache_.splice(expand_cache_.begin(), expand_cache_, hit->second);
      if (expand_cache_hits_ != nullptr) expand_cache_hits_->Increment();
      return hit->second->successors;  // copied out while still locked
    }
    if (expand_cache_misses_ != nullptr) expand_cache_misses_->Increment();
  }

  // Successor generation runs unlocked; two threads missing on the same
  // state both compute (identical) successor lists and the second insert
  // below is dropped. COW telemetry is attributed per problem by diffing
  // the calling thread's counters — all ApplyOp work is synchronous on
  // this thread, so the delta is exactly this expansion's, even with
  // other searches running concurrently in the process.
  const Database::CowStats cow_before = Database::ThreadCowStats();

  // The span covers real successor generation only; cache hits returned
  // above stay span-free (they cost a lookup, not a generation).
  obs::TraceSpan span(trace_, obs::TraceCategory::kExpand, "expand");

  std::vector<SuccessorT> successors;
  // Dedup on the full 128-bit fingerprint: distinct successors colliding
  // on a 64-bit key would silently drop a reachable state.
  std::unordered_set<Fp128, Fp128Hash> seen;
  seen.insert(state_key);

  for (Op& op : CandidateOps(state)) {
    Result<Database> next = ApplyOp(op, state, registry_, metrics_, trace_);
    if (!next.ok()) continue;  // inapplicable in this state
    Fp128 key = next->Fingerprint128();
    if (!seen.insert(key).second) continue;  // duplicate successor / no-op
    successors.push_back(SuccessorT{std::move(op), std::move(next).value()});
  }
  span.SetEndArg("successors", static_cast<int64_t>(successors.size()));

  if (cow_copies_ != nullptr) {
    const Database::CowStats cow_after = Database::ThreadCowStats();
    cow_copies_->Increment(cow_after.cow_copies - cow_before.cow_copies);
    relations_shared_->Increment(cow_after.relations_shared -
                                 cow_before.relations_shared);
  }

  if (cache_on) {
    std::lock_guard<std::mutex> lock(expand_mu_);
    if (!expand_cache_index_.contains(state_key)) {
      expand_cache_.push_front(ExpandCacheEntry{state_key, successors});
      expand_cache_index_.emplace(state_key, expand_cache_.begin());
      expand_cache_states_.fetch_add(successors.size(),
                                     std::memory_order_relaxed);
      while (expand_cache_.size() > config_.expand_cache_capacity) {
        ExpandCacheEntry& victim = expand_cache_.back();
        expand_cache_states_.fetch_sub(victim.successors.size(),
                                       std::memory_order_relaxed);
        expand_cache_index_.erase(victim.key);
        expand_cache_.pop_back();
        if (expand_cache_evictions_ != nullptr) {
          expand_cache_evictions_->Increment();
        }
      }
    }
  }
  return successors;
}

}  // namespace tupelo
