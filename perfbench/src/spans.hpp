// In-memory span log for the traced benchmark run.
//
// A span is one timed call into a library layer: a name, start and end
// on one steady clock, the span that caused it, and the benchmark unit
// it belongs to. Spans are recorded only from the benchmark's own
// files, around public library calls; the library itself carries no
// tracing. The log is kept in memory and written out when the run ends.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover. Children running in parallel (the
// 2-thread campaign pass) may overlap, so "covered" is the length of the
// union of the children's intervals, clipped to the parent.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the benchmark's steady clock since a fixed process epoch.
double now_s();

struct span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index of the causing span; -1 for a root
    int unit = -1;    ///< benchmark unit id; -1 outside any unit

    double duration_s() const noexcept { return end_s - start_s; }
};

/// Thread-safe append-only span log. When disabled, open() returns -1
/// and records nothing, so untraced runs pay one branch per call.
class span_log {
public:
    explicit span_log(bool enabled = false) : enabled_(enabled) {}

    void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

    /// Opens a span starting now; returns its id (-1 when disabled).
    int open(std::string name, int parent, int unit);
    /// Closes span `id` at now; ignores -1.
    void close(int id);

    /// Snapshot of every span recorded so far, indexed by id.
    std::vector<span> spans() const;

    /// Writes one JSON object per span, one per line.
    bool write_jsonl(const std::string& path) const;

private:
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<span> spans_;  ///< guarded by mutex_
};

/// RAII span: opens on construction, closes on destruction.
class scoped_span {
public:
    scoped_span(span_log* log, std::string name, int parent, int unit)
        : log_(log),
          id_(log != nullptr ? log->open(std::move(name), parent, unit)
                             : -1) {}
    ~scoped_span() {
        if (log_ != nullptr) log_->close(id_);
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

    int id() const noexcept { return id_; }

private:
    span_log* log_;
    int id_;
};

/// Self time of every span (same indexing as `spans`).
std::vector<double> self_times(const std::vector<span>& spans);

/// Index of the root ancestor of every span.
std::vector<int> root_of(const std::vector<span>& spans);

}  // namespace perfbench
