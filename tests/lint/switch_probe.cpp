// Compile-only probe for the lint.switch_exhaustive ctest: a switch with no
// `default:` over an enum that misses one enumerator.  The top-level
// -Werror=switch must reject it, so a `default:`-less switch over any enum
// in the tree can never silently skip a newly added enumerator.
enum class ProbeVerdict { kAccept, kReject, kLostSync };

int probe(ProbeVerdict v) {
    switch (v) {
        case ProbeVerdict::kAccept: return 1;
        case ProbeVerdict::kReject: return 2;
    }
    return 0;
}
