#include "src/capacity/shannon.hpp"

#include <cmath>
#include <stdexcept>

#include "src/propagation/units.hpp"

namespace csense::capacity {

double shannon_bits_per_hz(double snr_linear) {
    if (snr_linear < 0.0) {
        throw std::domain_error("shannon_bits_per_hz: negative SNR");
    }
    return std::log2(1.0 + snr_linear);
}

double shannon_bits_per_hz_db(double snr_db) {
    return shannon_bits_per_hz(propagation::db_to_linear(snr_db));
}

double snr_for_bits_per_hz(double bits_per_hz) {
    if (bits_per_hz < 0.0) {
        throw std::domain_error("snr_for_bits_per_hz: negative capacity");
    }
    return std::exp2(bits_per_hz) - 1.0;
}

}  // namespace csense::capacity
