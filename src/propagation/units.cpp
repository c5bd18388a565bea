#include "src/propagation/units.hpp"

#include <limits>
#include <stdexcept>

namespace csense::propagation {

double linear_to_db(double ratio) {
    if (!(ratio > 0.0)) {
        throw std::domain_error("linear_to_db: ratio must be positive");
    }
    return 10.0 * std::log10(ratio);
}

double db_to_linear(double db) noexcept { return std::pow(10.0, db / 10.0); }

double mw_to_dbm(double mw) { return linear_to_db(mw); }

double dbm_to_mw(double dbm) noexcept { return db_to_linear(dbm); }

double dbm_boundary_mw(double dbm) {
    if (!std::isfinite(dbm)) {
        throw std::invalid_argument(
            "dbm_boundary_mw: threshold must be finite");
    }
    const auto reaches = [dbm](double mw) {
        return mw > 0.0 && mw_to_dbm(mw) >= dbm;
    };
    // dbm_to_mw lands within a few ulps of the boundary; walk onto it.
    double b = dbm_to_mw(dbm);
    while (!reaches(b)) {
        b = std::nextafter(b, std::numeric_limits<double>::infinity());
    }
    while (b > 0.0 && reaches(std::nextafter(b, 0.0))) {
        b = std::nextafter(b, 0.0);
    }
    return b;
}

double wavelength_m(double frequency_hz) {
    if (!(frequency_hz > 0.0)) {
        throw std::domain_error("wavelength_m: frequency must be positive");
    }
    return speed_of_light / frequency_hz;
}

double distance(const position& a, const position& b) noexcept {
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    return std::sqrt(dx * dx + dy * dy);
}

double distance(const position3& a, const position3& b) noexcept {
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    const double dz = a.z - b.z;
    return std::sqrt(dx * dx + dy * dy + dz * dz);
}

}  // namespace csense::propagation
