// Shannon capacity as the model of adaptive-bitrate throughput (§2).
// The thesis uses C/B = log(1 + SNR) as "a rough proportional estimate"
// of what a bitrate-adapting radio achieves; we report capacities in
// bits/s/Hz (log base 2). Every ratio the model reports is independent of
// the log base.
#pragma once

namespace csense::capacity {

/// Spectral efficiency log2(1 + snr) in bits/s/Hz for a linear SNR >= 0.
double shannon_bits_per_hz(double snr_linear);

/// Spectral efficiency for an SNR given in dB.
double shannon_bits_per_hz_db(double snr_db);

/// Inverse: the linear SNR required for a target spectral efficiency.
double snr_for_bits_per_hz(double bits_per_hz);

}  // namespace csense::capacity
