// Explicit instantiations of the systolic simulators for the scalar types
// used across the library; keeps template code-gen out of every TU.

#include <complex>
#include <cstdint>

#include "systolic/engine.hpp"
#include "systolic/systolic_array.hpp"

namespace tcu::systolic {

template class SystolicArray<float>;
template class SystolicArray<double>;
template class SystolicArray<std::int32_t>;
template class SystolicArray<std::int64_t>;
template class SystolicArray<std::complex<double>>;

template class OutputStationaryArray<double>;
template class OutputStationaryArray<std::int64_t>;

template Device<std::complex<double>>::Engine
weight_stationary_engine<std::complex<double>>();

}  // namespace tcu::systolic
