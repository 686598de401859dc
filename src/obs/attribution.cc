#include "obs/attribution.h"

namespace spatialjoin {
namespace attribution {
namespace internal {

constinit thread_local QueryCharges* tls_charges = nullptr;

}  // namespace internal
}  // namespace attribution
}  // namespace spatialjoin
