// Fixture: must trip enum-switch — ColdTier is one of the enforced enums,
// and this switch handles only two of its three enumerators with no default
// arm, so adding a tier would silently fall through.
enum class ColdTier {
  kFp16,
  kDisk,
  kRecompute,
};

int Describe(ColdTier tier) {
  switch (tier) {
    case ColdTier::kFp16:
      return 1;
    case ColdTier::kDisk:
      return 2;
  }
  return 0;
}
