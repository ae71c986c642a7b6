// po_integration: a full walk through the paper's running example — the PO
// and PurchaseOrder schemas of Figures 1-2 — reproducing the qualitative
// QoM classifications of Section 2 and comparing all three algorithms.
//
// Run: ./po_integration

#include <cstdio>
#include <optional>

#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "eval/metrics.h"
#include "lingua/default_thesaurus.h"
#include "match/linguistic_matcher.h"
#include "match/structural_matcher.h"

int main() {
  using namespace qmatch;

  xsd::Schema po1 = datagen::MakePO1();
  xsd::Schema po2 = datagen::MakePO2();
  std::printf("== Schemas (paper Figures 1-2) ==\n%s\n%s\n",
              po1.ToTreeString().c_str(), po2.ToTreeString().c_str());

  // The taxonomy classifications discussed in Section 2.2.
  core::QMatch hybrid;
  core::QMatch::Analysis analysis = hybrid.Analyze(po1, po2);

  struct Case {
    const char* source;
    const char* target;
    const char* paper_says;
  };
  const Case cases[] = {
      {"/PO/OrderNo", "/PurchaseOrder/OrderNo", "exact leaf match"},
      {"/PO/PurchaseInfo/Lines/Quantity", "/PurchaseOrder/Items/Qty",
       "relaxed leaf match (abbreviation)"},
      {"/PO/PurchaseInfo/Lines/UnitOfMeasure", "/PurchaseOrder/Items/UOM",
       "relaxed leaf match (acronym)"},
      {"/PO/PurchaseInfo/Lines", "/PurchaseOrder/Items",
       "total relaxed subtree match"},
      {"/PO/PurchaseInfo", "/PurchaseOrder", "total relaxed subtree match"},
      {"/PO", "/PurchaseOrder", "total relaxed tree match"},
  };
  std::printf("== Section 2 classifications ==\n");
  for (const Case& c : cases) {
    const std::optional<core::PairQoM> pair =
        analysis.PairByPath(c.source, c.target);
    if (!pair.has_value()) {
      std::printf("  %s vs %s: <missing>\n", c.source, c.target);
      continue;
    }
    std::printf("  %-38s vs %-28s\n    paper: %-36s ours: %s\n", c.source,
                c.target, c.paper_says, pair->ToString().c_str());
  }

  // All three algorithms on the task, scored against the real matches.
  std::printf("\n== Algorithm comparison (Section 5 style) ==\n");
  eval::GoldStandard gold = datagen::GoldPO();
  match::LinguisticMatcher linguistic(&lingua::DefaultThesaurus());
  match::StructuralMatcher structural;
  const Matcher* algorithms[] = {&linguistic, &structural, &hybrid};
  for (const Matcher* matcher : algorithms) {
    MatchResult result = matcher->Match(po1, po2);
    eval::QualityMetrics metrics = eval::Evaluate(result, gold);
    std::printf("  %-11s schema QoM %.3f | %s\n",
                std::string(matcher->name()).c_str(), result.schema_qom,
                metrics.ToString().c_str());
  }
  return 0;
}
