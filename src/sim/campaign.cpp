#include "src/sim/campaign.hpp"

#include <stdexcept>

#include "src/core/parallel.hpp"

namespace csense::sim {

void campaign_options::validate() const {
    if (shard_size == 0) {
        throw std::invalid_argument("campaign_options: shard_size == 0");
    }
    if (threads < 0) {
        throw std::invalid_argument("campaign_options: negative threads");
    }
}

void for_each_shard(
    const campaign_options& options,
    const std::function<void(std::size_t, std::size_t)>& shard_body) {
    options.validate();
    if (options.replications == 0) return;
    core::parallel_for(options.threads, options.replications,
                       options.shard_size, shard_body);
}

}  // namespace csense::sim
