#ifndef QMATCH_XSD_SCHEMA_H_
#define QMATCH_XSD_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xsd/types.h"

namespace qmatch::xsd {

/// Kind of schema node. The paper treats sub-elements and attributes
/// uniformly as "children"; the kind is retained as a property.
enum class NodeKind { kElement, kAttribute };

/// Occurrence constraint (minOccurs/maxOccurs). Attributes map use=optional
/// to {0,1} and use=required to {1,1}.
struct Occurs {
  static constexpr int kUnbounded = -1;

  int min = 1;
  int max = 1;

  bool unbounded() const { return max == kUnbounded; }

  friend bool operator==(const Occurs& a, const Occurs& b) {
    return a.min == b.min && a.max == b.max;
  }
};

struct FlatSchema;  // xsd/flatten.h — the SoA projection cached by Schema

/// Content-model compositor governing a node's children. `kSequence` makes
/// the sibling order semantically meaningful (the paper's *order* property);
/// `kAll`/`kChoice` do not.
enum class Compositor { kNone, kSequence, kChoice, kAll };

std::string_view CompositorName(Compositor c);
std::string_view NodeKindName(NodeKind k);

/// A node of the schema tree: the unit the QoM model compares.
///
/// Carries the paper's four axes of information: the label `L`, the property
/// set `P` (type, order, occurrence, kind, ...), the children `C`, and the
/// nesting level `H` (filled in by `Schema::Finalize`).
class SchemaNode {
 public:
  explicit SchemaNode(std::string label, NodeKind kind = NodeKind::kElement)
      : label_(std::move(label)), kind_(kind) {}

  SchemaNode(const SchemaNode&) = delete;
  SchemaNode& operator=(const SchemaNode&) = delete;

  // --- Label axis ------------------------------------------------------
  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  // --- Property axis ---------------------------------------------------
  NodeKind kind() const { return kind_; }

  XsdType type() const { return type_; }
  /// The type name as written in the schema (e.g. "xs:string" or a custom
  /// complex-type name). Empty for untyped structural nodes.
  const std::string& type_name() const { return type_name_; }
  void set_type(XsdType type, std::string type_name = std::string()) {
    type_ = type;
    if (type_name.empty() && type != XsdType::kUnknown) {
      type_name_ = std::string(TypeName(type));
    } else {
      type_name_ = std::move(type_name);
    }
  }

  const Occurs& occurs() const { return occurs_; }
  void set_occurs(Occurs occurs) { occurs_ = occurs; }

  /// 0-based position among siblings; meaningful only when `ordered()`.
  int order() const { return order_; }
  /// Whether the parent compositor makes sibling order significant.
  bool ordered() const { return ordered_; }

  Compositor compositor() const { return compositor_; }
  void set_compositor(Compositor c) { compositor_ = c; }

  bool nillable() const { return nillable_; }
  void set_nillable(bool v) { nillable_ = v; }

  const std::optional<std::string>& default_value() const { return default_; }
  void set_default_value(std::string v) { default_ = std::move(v); }
  const std::optional<std::string>& fixed_value() const { return fixed_; }
  void set_fixed_value(std::string v) { fixed_ = std::move(v); }

  // --- Level axis ------------------------------------------------------
  /// Depth from the schema root (root = 0). Valid after Schema::Finalize.
  size_t level() const { return level_; }

  // --- Children axis ---------------------------------------------------
  bool IsLeaf() const { return children_.empty(); }
  const std::vector<std::unique_ptr<SchemaNode>>& children() const {
    return children_;
  }
  size_t child_count() const { return children_.size(); }
  const SchemaNode* child(size_t i) const { return children_[i].get(); }
  SchemaNode* child(size_t i) { return children_[i].get(); }

  const SchemaNode* parent() const { return parent_; }

  /// Appends a child and returns a borrowed pointer to it.
  SchemaNode* AddChild(std::unique_ptr<SchemaNode> child);

  /// First direct child with the given label, or nullptr.
  const SchemaNode* FindChild(std::string_view label) const;

  /// Number of nodes in this subtree (inclusive).
  size_t SubtreeSize() const;

  /// Height of this subtree in edges (leaf = 0).
  size_t Height() const;

  /// Slash-separated path from the root, attributes prefixed with '@'
  /// (e.g. "/PO/PurchaseInfo/@id"). Valid after Schema::Finalize for the
  /// level; the path itself only needs parent pointers.
  std::string Path() const;

  /// One-line summary for debugging: label, kind, type, occurs, level.
  std::string DebugString() const;

 private:
  friend class Schema;

  std::string label_;
  NodeKind kind_;
  XsdType type_ = XsdType::kAnyType;
  std::string type_name_;
  Occurs occurs_;
  int order_ = 0;
  bool ordered_ = false;
  Compositor compositor_ = Compositor::kNone;
  bool nillable_ = false;
  std::optional<std::string> default_;
  std::optional<std::string> fixed_;
  size_t level_ = 0;
  std::vector<std::unique_ptr<SchemaNode>> children_;
  const SchemaNode* parent_ = nullptr;
};

/// A schema tree: the parsed/constructed form of one XML Schema that the
/// matchers operate on.
class Schema {
 public:
  Schema() = default;
  Schema(std::string name, std::unique_ptr<SchemaNode> root)
      : name_(std::move(name)), root_(std::move(root)) {
    Finalize();
  }

  Schema(Schema&&) noexcept = default;
  Schema& operator=(Schema&&) noexcept = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::string& target_namespace() const { return target_namespace_; }
  void set_target_namespace(std::string ns) {
    target_namespace_ = std::move(ns);
  }

  const SchemaNode* root() const { return root_.get(); }
  SchemaNode* root() { return root_.get(); }
  void set_root(std::unique_ptr<SchemaNode> root) {
    root_ = std::move(root);
    Finalize();
  }

  /// Detaches and returns the root (e.g. to graft this tree into a larger
  /// schema). The schema is left empty.
  std::unique_ptr<SchemaNode> TakeRoot() {
    flat_.reset();
    return std::move(root_);
  }

  /// Recomputes levels, sibling order indices and ordered flags across the
  /// whole tree. Called automatically by the constructors/setters; call it
  /// again after mutating the tree in place.
  void Finalize();

  /// Total node count (elements + attributes), 0 for an empty schema.
  size_t NodeCount() const;

  /// Element-only count — the paper's "# elements" in Table 1.
  size_t ElementCount() const;

  /// Maximum depth in edges from the root — the paper's "max depth".
  size_t MaxDepth() const;

  /// All nodes in preorder (root first).
  std::vector<const SchemaNode*> AllNodes() const;
  std::vector<SchemaNode*> AllNodes();

  /// Looks a node up by its `SchemaNode::Path()`; nullptr when absent.
  const SchemaNode* FindByPath(std::string_view path) const;

  /// The structure-of-arrays projection of this tree (see xsd/flatten.h):
  /// interned labels, packed property descriptors, level vectors and CSR
  /// child ranges — everything the SoA match kernel reads, built lazily
  /// on first use and cached until the tree changes (Finalize/set_root/
  /// TakeRoot invalidate it). Thread-safe against concurrent Flat() calls;
  /// the returned reference lives as long as the schema does (or until
  /// invalidation).
  const FlatSchema& Flat() const;

  /// Deep copy of this schema.
  Schema Clone() const;

  /// Multi-line indented rendering of the tree for debugging.
  std::string ToTreeString() const;

 private:
  std::string name_;
  std::string target_namespace_;
  std::unique_ptr<SchemaNode> root_;
  /// Lazily built SoA projection; shared_ptr (not unique_ptr) so the
  /// defaulted moves stay noexcept with the incomplete FlatSchema type.
  mutable std::shared_ptr<const FlatSchema> flat_;
};

/// Deterministic 64-bit structural fingerprint of a schema tree: an FNV-1a
/// hash over a canonical preorder serialisation of every node's label,
/// kind, type, occurrence constraints, compositor and value facets. Two
/// schemas that would produce identical match behaviour hash equally
/// regardless of object identity; the match engine's result cache keys on
/// (source fingerprint, target fingerprint, config hash).
uint64_t SchemaFingerprint(const Schema& schema);

}  // namespace qmatch::xsd

#endif  // QMATCH_XSD_SCHEMA_H_
