#include "workloads/query_record.h"

#include <cstdint>

#include "util/hash.h"
#include "util/strings.h"

namespace wmp::workloads {

using util::HashBytes;
using util::Mix64;

std::string SummarizeRecord(const QueryRecord& record) {
  return StrFormat("family=%d mem=%.1fMB est=%.1fMB ops=%zu", record.family_id,
                   record.actual_memory_mb, record.dbms_estimate_mb,
                   record.plan != nullptr ? record.plan->TreeSize() : 0);
}

uint64_t ContentFingerprint(const QueryRecord& record) {
  // Hash everything a template method may read: SQL text (text-based
  // methods), plan features (the paper's plan-based methods), and the
  // generator family (rule-based). Doubles hash by bit pattern, which is
  // exactly the equality the histogram cache needs — bitwise-identical
  // inputs yield bitwise-identical histograms.
  uint64_t h = HashBytes(record.sql_text.data(), record.sql_text.size(),
                         /*seed=*/record.sql_text.size());
  if (!record.plan_features.empty()) {
    h = HashBytes(record.plan_features.data(),
                  record.plan_features.size() * sizeof(double), h);
  }
  const uint64_t family =
      static_cast<uint64_t>(static_cast<int64_t>(record.family_id));
  return Mix64(h ^ Mix64(family));
}

}  // namespace wmp::workloads
