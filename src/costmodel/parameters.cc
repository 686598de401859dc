#include "costmodel/parameters.h"

#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/math_util.h"

namespace spatialjoin {

int64_t ModelParameters::N() const {
  int64_t total = 0;
  for (int i = 0; i <= n; ++i) total += IPow(k, i);
  return total;
}

int64_t ModelParameters::m() const {
  int64_t per_page = static_cast<int64_t>(
      std::floor(static_cast<double>(s) * l / static_cast<double>(v)));
  SJ_CHECK_GE(per_page, 1);
  return per_page;
}

int ModelParameters::d() const {
  double height = std::log(static_cast<double>(N())) /
                  std::log(static_cast<double>(z));
  return static_cast<int>(std::ceil(height)) ;
}

double ModelParameters::NodesAtHeight(int i) const {
  SJ_CHECK_GE(i, 0);
  SJ_CHECK_LE(i, n);
  return DPow(static_cast<double>(k), i);
}

int64_t ModelParameters::RelationPages() const { return CeilDiv(N(), m()); }

std::string ModelParameters::ToString() const {
  std::ostringstream os;
  os << "n=" << n << " k=" << k << " p=" << p << " v=" << v << " l=" << l
     << " h=" << h << " T=" << T << " s=" << s << " z=" << z << " M=" << M
     << " C_theta=" << c_theta << " C_IO=" << c_io << " C_U=" << c_u
     << " | N=" << N() << " m=" << m() << " d=" << d();
  return os.str();
}

ModelParameters PaperParameters() {
  // Table 3 verbatim; derived values N = 1,111,111, m = 5, d = 4 are
  // recomputed and asserted by tests.
  return ModelParameters{};
}

}  // namespace spatialjoin
