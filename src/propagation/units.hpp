// Unit conversions and small geometric types shared by the propagation,
// MAC, and testbed layers. Powers move between linear (milliwatt) and
// logarithmic (dB / dBm) domains constantly in link-budget code; keeping
// the conversions in one place avoids the classic factor-of-10 bugs.
#pragma once

#include <cmath>

namespace csense::propagation {

/// Speed of light in m/s.
inline constexpr double speed_of_light = 299'792'458.0;

/// Convert a linear power ratio to decibels.
double linear_to_db(double ratio);

/// Convert decibels to a linear power ratio.
double db_to_linear(double db) noexcept;

/// Convert milliwatts to dBm.
double mw_to_dbm(double mw);

/// Convert dBm to milliwatts.
double dbm_to_mw(double dbm) noexcept;

/// The smallest double `b` with mw_to_dbm(b) >= `dbm`: the exact mW
/// boundary of a dBm threshold. mw_to_dbm is non-decreasing, so for every
/// positive power `p`, `p >= b` decides exactly like
/// `mw_to_dbm(p) >= dbm` without a logarithm. Throws
/// std::invalid_argument on a non-finite `dbm`.
double dbm_boundary_mw(double dbm);

/// Wavelength in meters for a carrier frequency in Hz.
double wavelength_m(double frequency_hz);

/// 2-D position in meters (the testbed adds a floor index separately).
struct position {
    double x = 0.0;
    double y = 0.0;
};

/// Euclidean distance between two positions.
double distance(const position& a, const position& b) noexcept;

/// 3-D position used by the two-floor testbed layout.
struct position3 {
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;
};

double distance(const position3& a, const position3& b) noexcept;

}  // namespace csense::propagation
