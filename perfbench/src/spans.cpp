#include "perfbench/src/spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

double now_s() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

int span_log::open(std::string name, int parent, int unit) {
    if (!enabled_) return -1;
    const double start = now_s();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), start, start, parent, unit});
    return static_cast<int>(spans_.size()) - 1;
}

void span_log::close(int id) {
    if (id < 0) return;
    const double end = now_s();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_s = end;
}

std::vector<span> span_log::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool span_log::write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const auto all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const span& s = all[i];
        std::fprintf(out,
                     "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                     "\"end_s\": %.9f, \"parent\": %d, \"unit\": %d}\n",
                     i, s.name.c_str(), s.start_s, s.end_s, s.parent, s.unit);
    }
    return std::fclose(out) == 0;
}

std::vector<double> self_times(const std::vector<span>& spans) {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const span& s : spans) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start_s, s.end_s);
        }
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start_s;
        const double hi = spans[i].end_s;
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Length of the union of child intervals, clipped to [lo, hi].
        double covered = 0.0;
        double cursor = lo;
        for (const auto& [start, end] : kids) {
            const double a = std::max(start, cursor);
            const double b = std::min(end, hi);
            if (b > a) {
                covered += b - a;
                cursor = b;
            }
        }
        self[i] = (hi - lo) - covered;
    }
    return self;
}

std::vector<int> root_of(const std::vector<span>& spans) {
    // Parents are opened before their children, so a parent's index is
    // always smaller and one forward pass resolves every root.
    std::vector<int> root(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        root[i] = p < 0 ? static_cast<int>(i)
                        : root[static_cast<std::size_t>(p)];
    }
    return root;
}

}  // namespace perfbench
