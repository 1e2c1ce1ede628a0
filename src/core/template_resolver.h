#ifndef WMP_CORE_TEMPLATE_RESOLVER_H_
#define WMP_CORE_TEMPLATE_RESOLVER_H_

/// \file template_resolver.h
/// Per-query template-id memo interface for the binning path.
///
/// LearnedWMP's serving workloads repeat *individual* queries endlessly in
/// novel combinations (the paper's admission-controller deployment, §I).
/// The histogram cache only helps when a whole workload recurs; a per-query
/// memo makes a workload of all-known queries nearly free — its histogram
/// is built from cached template ids without featurize/assign.
///
/// This interface is what `LearnedWmpModel::AssignTemplateIds` consults to
/// split IN3 into a resolve-hits / featurize-misses / backfill pipeline.
/// The serving-side implementation is `engine::TemplateIdCache` (a
/// set-associative cache keyed by `QueryRecord::content_fingerprint`,
/// versioned on model identity); core only sees this abstract memo so the
/// dependency points engine -> core, never back.
///
/// Thread-safety contract: implementations must tolerate concurrent
/// Resolve/Learn calls — dispatcher threads of different services may share
/// one memo over the same model.

#include <cstddef>
#include <cstdint>

namespace wmp::core {

/// \brief Abstract fingerprint -> template-id memo.
class TemplateIdResolver {
 public:
  virtual ~TemplateIdResolver() = default;

  /// For each `i` in `[0, n)`: if `keys[i]` is known, writes the memoized
  /// template id into `ids[i]` and sets `hit[i] = 1`; otherwise sets
  /// `hit[i] = 0` and leaves `ids[i]` untouched. Returns the hit count.
  virtual size_t Resolve(const uint64_t* keys, size_t n, int* ids,
                         uint8_t* hit) = 0;

  /// Records `n` freshly computed (key, id) pairs so later Resolve calls
  /// can skip featurize/assign for them.
  virtual void Learn(const uint64_t* keys, const int* ids, size_t n) = 0;
};

}  // namespace wmp::core

#endif  // WMP_CORE_TEMPLATE_RESOLVER_H_
