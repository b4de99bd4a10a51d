#include "engine/overload.hpp"

namespace sts::engine {

bool overloadStep(double pressure, double hysteresis, bool rejecting) {
  // Start refusing at the target; stop only once pressure clears it by the
  // hysteresis band, so a load hovering at the target holds instead of
  // dithering. Delay estimates are >= 0 (the caller's contract).
  if (!rejecting) return pressure >= 1.0;
  return pressure > 1.0 - hysteresis;
}

}  // namespace sts::engine
