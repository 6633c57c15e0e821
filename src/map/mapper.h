// The address-mapping interface: "a mapping function in the path between the
// specification of a name by a program and the accessing by absolute address
// of the corresponding location."

#ifndef SRC_MAP_MAPPER_H_
#define SRC_MAP_MAPPER_H_

#include <cstdint>
#include <string>

#include "src/core/expected.h"
#include "src/core/snapshot.h"
#include "src/core/types.h"
#include "src/map/fault.h"

namespace dsa {

struct Translation {
  PhysicalAddress address;
  Cycles cost{0};            // cycles spent in the mapping path
  bool associative_hit{false};
};

using TranslationResult = Expected<Translation, Fault>;

class AddressMapper {
 public:
  virtual ~AddressMapper() = default;

  // Maps `name` to a physical address at simulated time `now`, charging the
  // translation cost and updating any use/modified sensors.
  virtual TranslationResult Translate(Name name, AccessKind kind, Cycles now) = 0;

  virtual std::string name() const = 0;

  // --- accounting ---------------------------------------------------------
  std::uint64_t translations() const { return translations_; }
  std::uint64_t faults() const { return faults_; }
  Cycles translation_cycles() const { return translation_cycles_; }
  double MeanTranslationCost() const {
    return translations_ == 0
               ? 0.0
               : static_cast<double>(translation_cycles_) / static_cast<double>(translations_);
  }

  // The shared accounting block, serialized by each checkpointable mapper
  // (the page-table mapper's map.head section, the Atlas register file)
  // alongside its own state.
  void SaveAccounting(SnapshotWriter* w) const {
    w->U64(translations_);
    w->U64(faults_);
    w->U64(translation_cycles_);
  }
  void LoadAccounting(SnapshotReader* r) {
    const std::uint64_t translations = r->U64();
    const std::uint64_t faults = r->U64();
    const Cycles cycles = r->U64();
    if (!r->ok()) {
      return;
    }
    translations_ = translations;
    faults_ = faults;
    translation_cycles_ = cycles;
  }

 protected:
  // Implementations report every attempt through these.
  void CountTranslation(Cycles cost) {
    ++translations_;
    translation_cycles_ += cost;
  }
  void CountFault(Cycles cost) {
    ++translations_;
    ++faults_;
    translation_cycles_ += cost;
  }

 private:
  std::uint64_t translations_{0};
  std::uint64_t faults_{0};
  Cycles translation_cycles_{0};
};

// The no-mapping baseline: names are absolute addresses (early machines).
// Zero translation cost, no relocation, no protection.
class IdentityMapper : public AddressMapper {
 public:
  explicit IdentityMapper(WordCount extent) : extent_(extent) {}

  TranslationResult Translate(Name name, AccessKind kind, Cycles now) override {
    (void)kind;
    (void)now;
    if (name.value >= extent_) {
      Fault fault{FaultKind::kInvalidName, name, {}, {}, 0};
      CountFault(0);
      return MakeUnexpected(fault);
    }
    CountTranslation(0);
    return Translation{PhysicalAddress{name.value}, 0, false};
  }

  std::string name() const override { return "identity"; }

 private:
  WordCount extent_;
};

}  // namespace dsa

#endif  // SRC_MAP_MAPPER_H_
