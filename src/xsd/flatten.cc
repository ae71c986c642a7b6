#include "xsd/flatten.h"

#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>

namespace qmatch::xsd {

namespace {

/// The property-descriptor projection of one node. `type_name` is only
/// discriminating when the type is kUnknown (user-defined types compare by
/// written name — see match::CompareTypeProperty); for known types it is
/// dropped so that cosmetically different spellings of the same lattice
/// type intern to one descriptor.
FlatSchema::PropertyKey KeyOf(const SchemaNode& node) {
  FlatSchema::PropertyKey key;
  key.kind = node.kind();
  key.type = node.type();
  if (node.type() == XsdType::kUnknown) key.type_name = node.type_name();
  key.order = node.order();
  key.ordered = node.ordered();
  key.occurs_min = node.occurs().min;
  key.occurs_max = node.occurs().max;
  key.nillable = node.nillable();
  return key;
}

}  // namespace

FlatSchema BuildFlatSchema(const Schema& schema) {
  FlatSchema flat;
  if (schema.root() == nullptr) return flat;
  flat.nodes = schema.AllNodes();  // preorder, root first
  const size_t n = flat.nodes.size();
  flat.label_id.reserve(n);
  flat.prop_id.reserve(n);
  flat.level.reserve(n);
  flat.parent.reserve(n);
  flat.child_begin.reserve(n + 1);
  flat.child_index.reserve(n - 1);

  std::map<const SchemaNode*, uint32_t> index;
  for (size_t i = 0; i < n; ++i) {
    index[flat.nodes[i]] = static_cast<uint32_t>(i);
  }

  // Interning maps; ids are assigned in first-occurrence preorder order so
  // that repeated flattens of equal trees produce identical tables (the
  // intern-stability property the flatten tests pin down).
  std::map<std::string_view, uint32_t> label_ids;
  std::map<FlatSchema::PropertyKey, uint32_t> prop_ids;

  for (size_t i = 0; i < n; ++i) {
    const SchemaNode* node = flat.nodes[i];

    const auto [label_it, label_fresh] = label_ids.try_emplace(
        node->label(), static_cast<uint32_t>(flat.labels.size()));
    if (label_fresh) flat.labels.push_back(node->label());
    flat.label_id.push_back(label_it->second);

    const auto [prop_it, prop_fresh] = prop_ids.try_emplace(
        KeyOf(*node), static_cast<uint32_t>(flat.prop_keys.size()));
    if (prop_fresh) {
      flat.prop_keys.push_back(prop_it->first);
      flat.prop_rep.push_back(static_cast<uint32_t>(i));
    }
    flat.prop_id.push_back(prop_it->second);

    const auto level = static_cast<uint32_t>(node->level());
    flat.level.push_back(level);
    if (level > flat.max_level) flat.max_level = level;
    flat.parent.push_back(node->parent() == nullptr
                              ? FlatSchema::kNoParent
                              : index.at(node->parent()));
  }

  // CSR child ranges, in the same preorder: node i's children occupy one
  // contiguous run of child_index in tree (sibling) order.
  for (size_t i = 0; i < n; ++i) {
    flat.child_begin.push_back(static_cast<uint32_t>(flat.child_index.size()));
    for (const auto& child : flat.nodes[i]->children()) {
      flat.child_index.push_back(index.at(child.get()));
    }
  }
  flat.child_begin.push_back(static_cast<uint32_t>(flat.child_index.size()));
  return flat;
}

Schema ReconstructFromFlat(const FlatSchema& flat, std::string name) {
  Schema schema;
  schema.set_name(std::move(name));
  if (flat.size() == 0) return schema;

  const size_t n = flat.size();
  std::vector<std::unique_ptr<SchemaNode>> built;
  std::vector<SchemaNode*> raw(n, nullptr);
  built.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const FlatSchema::PropertyKey& key = flat.prop_keys[flat.prop_id[i]];
    auto node = std::make_unique<SchemaNode>(flat.labels[flat.label_id[i]],
                                             key.kind);
    node->set_type(key.type, key.type_name);
    node->set_occurs({key.occurs_min, key.occurs_max});
    node->set_nillable(key.nillable);
    raw[i] = node.get();
    built.push_back(std::move(node));
  }

  for (size_t i = 0; i < n; ++i) {
    const uint32_t begin = flat.child_begin[i];
    const uint32_t end = flat.child_begin[i + 1];
    if (begin == end) continue;
    // All siblings share the ordered flag (it is a property of the parent
    // compositor); kSequence reproduces ordered=true, kChoice false.
    const bool ordered =
        flat.prop_keys[flat.prop_id[flat.child_index[begin]]].ordered;
    raw[i]->set_compositor(ordered ? Compositor::kSequence
                                   : Compositor::kChoice);
    for (uint32_t c = begin; c < end; ++c) {
      raw[i]->AddChild(std::move(built[flat.child_index[c]]));
    }
  }

  schema.set_root(std::move(built[0]));  // Finalize(): levels/order/ordered
  return schema;
}

const FlatSchema& Schema::Flat() const {
  // One process-wide mutex for all schemas: Flat() is called once per
  // schema per match, so contention is negligible, and keeping the Schema
  // object free of sync members preserves its defaulted move operations.
  static std::mutex mu;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (flat_ != nullptr) return *flat_;
  }
  // Build outside the lock (the tree is immutable while matching); the
  // first finished build wins, concurrent losers are discarded.
  auto built = std::make_shared<const FlatSchema>(BuildFlatSchema(*this));
  std::lock_guard<std::mutex> lock(mu);
  if (flat_ == nullptr) flat_ = std::move(built);
  return *flat_;
}

}  // namespace qmatch::xsd
