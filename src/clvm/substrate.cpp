#include "clvm/substrate.hpp"

#include "support/bytes.hpp"
#include "support/errors.hpp"

namespace saintdroid {

void FrameworkSubstrate::materialize_classes(const DexFile& image) {
  by_name_.reserve(image.classes().size());
  for (const auto& def : image.classes()) {
    ClassEntry& entry = entries_.emplace_back();
    entry.cls = materialize_loaded_class(image, def, /*from_framework=*/true);
    // First definition wins, matching the name-index semantics of the
    // per-analysis loaders.
    const auto [it, inserted] = by_name_.emplace(entry.cls.name, &entry);
    if (!inserted) {
      entries_.pop_back();
      continue;
    }
    entry.slot = static_cast<std::uint32_t>(entries_.size() - 1);
    entry.cls.substrate_entry = &entry;  // identity-checked in entry_of
    total_footprint_ += entry.cls.footprint;
  }
  for (ClassEntry& entry : entries_) {
    if (entry.cls.super_name.empty()) continue;
    const auto sit = by_name_.find(std::string_view{entry.cls.super_name});
    if (sit != by_name_.end()) entry.super = sit->second;
  }
}

FrameworkSubstrate::FrameworkSubstrate(const DexFile& image, int level)
    : level_(level) {
  materialize_classes(image);

  // Second pass, once the surviving entries are fixed: method tables plus
  // invoke edges.
  // Same method ref -> same callee identity; build each MethodId once.
  std::unordered_map<std::uint32_t, CalleeEdge> edges_by_ref;
  for (ClassEntry& entry : entries_) {
    const auto& methods = entry.cls.def->methods;
    entry.methods.reserve(methods.size());
    for (const auto& m : methods) {
      MethodEntry& me = entry.methods.emplace_back();
      me.def = &m;
      me.name = image.string_at(m.name);
      me.descriptor = image.descriptor_of(m.proto);
      me.slot = static_cast<std::uint32_t>(method_count_++);
      if (!m.code) continue;
      for (const auto& insn : m.code->insns) {
        if (insn.op != Opcode::kInvoke) continue;
        auto& edge = edges_by_ref[insn.index];
        if (edge.id == nullptr) {
          callee_pool_.push_back(image.method_id_at(insn.index));
          edge.id = &callee_pool_.back();
          const auto tit =
              by_name_.find(std::string_view{edge.id->class_name});
          if (tit != by_name_.end()) {
            edge.target = &tit->second->cls;
            edge.target_slot = tit->second->slot;
          }
        }
        me.callees.push_back(edge);
      }
    }
  }

  // Third pass, once every method table is fixed: resolve each edge to the
  // target's own MethodEntry (first declaration-order match, exactly what
  // find_method_in returns), so the walk can recurse without comparing
  // strings.
  for (ClassEntry& entry : entries_) {
    for (MethodEntry& me : entry.methods) {
      for (CalleeEdge& edge : me.callees) {
        if (edge.target == nullptr) continue;
        for (const MethodEntry& cand : entries_[edge.target_slot].methods) {
          if (cand.name == edge.id->name &&
              cand.descriptor == edge.id->descriptor) {
            edge.resolved = &cand;
            break;
          }
        }
      }
    }
  }
}

FrameworkSubstrate::FrameworkSubstrate(const DexFile& image, int level,
                                       std::span<const std::uint8_t> tables)
    : level_(level) {
  materialize_classes(image);

  ByteReader r{tables};
  if (r.uleb() != entries_.size())
    throw ParseError("substrate tables: class count mismatch");
  const std::uint64_t stored_method_total = r.uleb();
  // Format byte: always 1 (method tables present). Tables written without
  // them (0) are stale and rebuilt like any other mismatching entry.
  if (r.u8() != 1) throw ParseError("substrate tables: no method tables");

  // The deduplicated callee pool: identity strings plus the dense slot
  // and resolved-method index computed by a full build's passes 2 and 3.
  // Resolved pointers are bound after the method tables exist.
  struct PoolEntry {
    std::uint64_t target_slot_plus1 = 0;
    std::uint64_t resolved_plus1 = 0;
  };
  const std::uint64_t pool_count = r.count(/*min_element_bytes=*/5);
  std::vector<PoolEntry> pool_meta;
  pool_meta.reserve(pool_count);
  for (std::uint64_t i = 0; i < pool_count; ++i) {
    MethodId id;
    id.class_name = r.str();
    id.name = r.str();
    id.descriptor = r.str();
    callee_pool_.push_back(std::move(id));
    PoolEntry meta;
    meta.target_slot_plus1 = r.uleb();
    if (meta.target_slot_plus1 > entries_.size())
      throw ParseError("substrate tables: callee target slot out of range");
    meta.resolved_plus1 = r.uleb();
    pool_meta.push_back(meta);
  }

  // Method tables: descriptors come from the payload (skipping
  // descriptor_of), names and definitions rebind into the image.
  // Per-method edge lists are kept as pool indices until the pool's
  // CalleeEdge values can be completed below.
  std::vector<std::uint32_t> edge_indices;
  std::vector<std::pair<std::size_t, std::size_t>> edge_ranges;
  for (ClassEntry& entry : entries_) {
    const auto& methods = entry.cls.def->methods;
    if (r.count(/*min_element_bytes=*/2) != methods.size())
      throw ParseError("substrate tables: method count mismatch");
    entry.methods.reserve(methods.size());
    for (const auto& m : methods) {
      MethodEntry& me = entry.methods.emplace_back();
      me.def = &m;
      me.name = image.string_at(m.name);
      me.descriptor = r.str();
      me.slot = static_cast<std::uint32_t>(method_count_++);
      const std::uint64_t edge_count = r.count(/*min_element_bytes=*/1);
      edge_ranges.emplace_back(edge_indices.size(),
                               static_cast<std::size_t>(edge_count));
      for (std::uint64_t e = 0; e < edge_count; ++e) {
        const std::uint64_t idx = r.uleb();
        if (idx >= pool_count)
          throw ParseError("substrate tables: edge pool index out of range");
        edge_indices.push_back(static_cast<std::uint32_t>(idx));
      }
    }
  }

  // Complete the pool edges now that every method table is fixed, then
  // fan them out into the per-method callee lists — the bulk-rebind
  // equivalent of passes 2 and 3.
  std::vector<CalleeEdge> pool_edges(callee_pool_.size());
  std::size_t pool_index = 0;
  for (const MethodId& id : callee_pool_) {
    CalleeEdge& edge = pool_edges[pool_index];
    edge.id = &id;
    const PoolEntry& meta = pool_meta[pool_index];
    if (meta.target_slot_plus1 != 0) {
      const auto slot =
          static_cast<std::uint32_t>(meta.target_slot_plus1 - 1);
      edge.target = &entries_[slot].cls;
      edge.target_slot = slot;
      if (meta.resolved_plus1 != 0) {
        if (meta.resolved_plus1 > entries_[slot].methods.size())
          throw ParseError(
              "substrate tables: resolved method index out of range");
        edge.resolved = &entries_[slot]
                             .methods[static_cast<std::size_t>(
                                 meta.resolved_plus1 - 1)];
      }
    } else if (meta.resolved_plus1 != 0) {
      throw ParseError("substrate tables: resolved edge without target");
    }
    ++pool_index;
  }
  std::size_t range_index = 0;
  for (ClassEntry& entry : entries_) {
    for (MethodEntry& me : entry.methods) {
      const auto [offset, count] = edge_ranges[range_index++];
      me.callees.reserve(count);
      for (std::size_t e = 0; e < count; ++e)
        me.callees.push_back(pool_edges[edge_indices[offset + e]]);
    }
  }

  if (stored_method_total != method_count_)
    throw ParseError("substrate tables: method total mismatch");
  if (!r.at_end())
    throw ParseError("trailing bytes after substrate tables");
}

std::vector<std::uint8_t> FrameworkSubstrate::serialize_tables() const {
  ByteWriter w;
  w.uleb(entries_.size());
  w.uleb(method_count_);
  w.u8(1);  // format byte: method tables present (see the rebind)

  // Pool indices keyed by the shared MethodId addresses (pool order is
  // first-encounter order of the build, itself deterministic).
  std::unordered_map<const MethodId*, std::uint32_t> pool_index;
  pool_index.reserve(callee_pool_.size());
  for (const MethodId& id : callee_pool_)
    pool_index.emplace(&id, static_cast<std::uint32_t>(pool_index.size()));

  // Per-pool-entry metadata comes from any edge copy referencing it; all
  // copies of one pool id carry identical target/resolved bindings.
  struct PoolMeta {
    std::uint64_t target_slot_plus1 = 0;
    std::uint64_t resolved_plus1 = 0;
  };
  std::vector<PoolMeta> metas(callee_pool_.size());
  for (const ClassEntry& entry : entries_) {
    for (const MethodEntry& me : entry.methods) {
      for (const CalleeEdge& edge : me.callees) {
        PoolMeta& meta = metas[pool_index.at(edge.id)];
        if (edge.target == nullptr) continue;
        meta.target_slot_plus1 = edge.target_slot + 1;
        if (edge.resolved != nullptr) {
          const auto& methods = entries_[edge.target_slot].methods;
          meta.resolved_plus1 =
              static_cast<std::uint64_t>(edge.resolved - methods.data()) + 1;
        }
      }
    }
  }

  w.uleb(callee_pool_.size());
  std::size_t index = 0;
  for (const MethodId& id : callee_pool_) {
    w.str(id.class_name);
    w.str(id.name);
    w.str(id.descriptor);
    w.uleb(metas[index].target_slot_plus1);
    w.uleb(metas[index].resolved_plus1);
    ++index;
  }

  for (const ClassEntry& entry : entries_) {
    w.uleb(entry.methods.size());
    for (const MethodEntry& me : entry.methods) {
      w.str(me.descriptor);
      w.uleb(me.callees.size());
      for (const CalleeEdge& edge : me.callees)
        w.uleb(pool_index.at(edge.id));
    }
  }
  return w.take();
}

const LoadedClass* FrameworkSubstrate::find_class(
    const std::string& name) const {
  const auto it = by_name_.find(std::string_view{name});
  return it == by_name_.end() ? nullptr : &it->second->cls;
}

}  // namespace saintdroid
