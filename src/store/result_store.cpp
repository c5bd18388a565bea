#include "src/store/result_store.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace csense::store {
namespace {

constexpr std::string_view kMagic = "csense-store/1";

bool default_write_file(const std::filesystem::path& path,
                        std::string_view data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.flush();
    return out.good();
}

bool default_rename_file(const std::filesystem::path& from,
                         const std::filesystem::path& to) {
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    return !ec;
}

/// Reads one whole file; nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) return std::nullopt;
    return buffer.str();
}

/// Consumes "<label> " from the front of `text` and returns the rest of
/// that line; nullopt when the label does not match.
std::optional<std::string_view> take_line(std::string_view* text,
                                          std::string_view label) {
    const std::size_t eol = text->find('\n');
    if (eol == std::string_view::npos) return std::nullopt;
    std::string_view line = text->substr(0, eol);
    text->remove_prefix(eol + 1);
    if (label.empty()) return line;
    if (line.size() < label.size() + 1 ||
        line.substr(0, label.size()) != label || line[label.size()] != ' ') {
        return std::nullopt;
    }
    return line.substr(label.size() + 1);
}

std::string hex64(std::uint64_t v) {
    char buf[17];
    for (int i = 15; i >= 0; --i) {
        buf[i] = "0123456789abcdef"[v & 0xf];
        v >>= 4;
    }
    return std::string(buf, 16);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view data) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

/// Structural view into one raw record image (the bytes of a `.rec`
/// file). Views point into the caller's buffer.
struct record_view {
    std::string_view schema;   ///< schema line, e.g. "csense-bench/2"
    std::string_view key;      ///< the key the record claims to hold
    std::string_view payload;  ///< checksum-verified payload bytes
};

/// Validates one raw record image: magic, header lines, payload byte
/// count and FNV-1a checksum. Returns nullopt on any structural
/// failure; schema/key policy is result_store::load's.
std::optional<record_view> parse_record(std::string_view raw) {
    std::string_view rest = raw;
    const auto magic = take_line(&rest, "");
    if (!magic || *magic != kMagic) return std::nullopt;
    const auto schema = take_line(&rest, "schema");
    if (!schema) return std::nullopt;
    const auto stored_key = take_line(&rest, "key");
    if (!stored_key) return std::nullopt;
    const auto size_field = take_line(&rest, "payload_bytes");
    if (!size_field) return std::nullopt;
    const auto checksum_field = take_line(&rest, "payload_fnv1a64");
    if (!checksum_field) return std::nullopt;
    const auto separator = take_line(&rest, "");
    if (!separator || *separator != "---") return std::nullopt;

    std::size_t payload_bytes = 0;
    const auto res = std::from_chars(
        size_field->data(), size_field->data() + size_field->size(),
        payload_bytes);
    if (res.ec != std::errc() ||
        res.ptr != size_field->data() + size_field->size()) {
        return std::nullopt;
    }
    // Truncation and trailing garbage both fail the exact-length check.
    if (rest.size() != payload_bytes) return std::nullopt;
    if (checksum_field->size() != 16 ||
        *checksum_field != hex64(fnv1a64(rest))) {
        return std::nullopt;
    }
    return record_view{*schema, *stored_key, rest};
}

}  // namespace

result_store::result_store(std::filesystem::path root,
                           std::string schema_version, fs_hooks hooks)
    : root_(std::move(root)),
      schema_version_(std::move(schema_version)),
      hooks_(std::move(hooks)) {
    if (!hooks_.write_file) hooks_.write_file = &default_write_file;
    if (!hooks_.rename_file) hooks_.rename_file = &default_rename_file;
    std::error_code ec;
    std::filesystem::create_directories(root_, ec);
    if (ec || !std::filesystem::is_directory(root_)) {
        throw std::runtime_error("result_store: cannot create root '" +
                                 root_.string() + "': " + ec.message());
    }
}

std::filesystem::path result_store::path_for(std::string_view key) const {
    // Human-readable prefix (sanitized, truncated) + full-key hash so
    // distinct keys can never collide on sanitization alone.
    std::string name;
    name.reserve(64);
    for (const char c : key.substr(0, 48)) {
        const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                          c == '.';
        name += safe ? c : '_';
    }
    name += '-';
    name += hex64(fnv1a64(key));
    name += ".rec";
    return root_ / name;
}

std::filesystem::path result_store::quarantine_dir() const {
    return root_ / "quarantine";
}

bool result_store::quarantine(const std::filesystem::path& file) {
    std::error_code ec;
    std::filesystem::create_directories(quarantine_dir(), ec);
    std::filesystem::path dest = quarantine_dir() / file.filename();
    // Keep every quarantined generation: evidence for debugging, and a
    // repeat corruption must not silently overwrite the previous one.
    for (int n = 1; std::filesystem::exists(dest, ec); ++n) {
        dest = quarantine_dir() /
               (file.filename().string() + ".q" + std::to_string(n));
    }
    std::filesystem::rename(file, dest, ec);
    if (ec) {
        // Last resort: a corrupt record must never be re-read as valid.
        std::filesystem::remove(file, ec);
    }
    quarantined_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::optional<std::string> result_store::load(std::string_view key) {
    const std::filesystem::path file = path_for(key);
    std::error_code ec;
    if (!std::filesystem::exists(file, ec)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    const std::optional<std::string> raw = read_file(file);
    const auto corrupt = [&]() -> std::optional<std::string> {
        quarantine(file);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    };
    if (!raw) return corrupt();

    const auto record = parse_record(*raw);
    if (!record) return corrupt();
    // A record for a different key in this slot means the directory was
    // tampered with or a hash collision was hand-crafted: quarantine.
    if (record->key != key) return corrupt();
    // Stale schema: structurally valid, just from an older store
    // generation. Not corruption — report a miss and let the recompute
    // overwrite it in place.
    if (record->schema != schema_version_) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return std::string(record->payload);
}

bool result_store::put(std::string_view key, std::string_view payload) {
    if (key.empty() || key.find('\n') != std::string_view::npos) {
        throw std::invalid_argument(
            "result_store::put: key must be non-empty and newline-free");
    }
    std::string record;
    record.reserve(payload.size() + 160);
    record += kMagic;
    record += "\nschema ";
    record += schema_version_;
    record += "\nkey ";
    record += key;
    record += "\npayload_bytes ";
    record += std::to_string(payload.size());
    record += "\npayload_fnv1a64 ";
    record += hex64(fnv1a64(payload));
    record += "\n---\n";
    record += payload;

    const std::filesystem::path file = path_for(key);
    const std::filesystem::path tmp =
        file.parent_path() / (file.filename().string() + ".tmp");
    std::error_code ec;
    std::filesystem::create_directories(file.parent_path(), ec);
    if (!hooks_.write_file(tmp, record) || !hooks_.rename_file(tmp, file)) {
        write_failures_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    writes_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void result_store::erase(std::string_view key) {
    std::error_code ec;
    std::filesystem::remove(path_for(key), ec);
}

store_stats result_store::stats() const noexcept {
    store_stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.writes = writes_.load(std::memory_order_relaxed);
    s.write_failures = write_failures_.load(std::memory_order_relaxed);
    s.quarantined = quarantined_.load(std::memory_order_relaxed);
    return s;
}

std::string encode_doubles(const double* values, std::size_t count) {
    std::string out;
    out.reserve(count * 24);
    char buf[64];
    for (std::size_t i = 0; i < count; ++i) {
        const auto res = std::to_chars(buf, buf + sizeof(buf), values[i]);
        if (i != 0) out += ' ';
        out.append(buf, res.ptr);
    }
    return out;
}

bool decode_doubles(std::string_view payload, double* values,
                    std::size_t count) {
    std::size_t pos = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (i != 0) {
            if (pos >= payload.size() || payload[pos] != ' ') return false;
            ++pos;
        }
        const auto res = std::from_chars(payload.data() + pos,
                                         payload.data() + payload.size(),
                                         values[i]);
        if (res.ec != std::errc()) return false;
        pos = static_cast<std::size_t>(res.ptr - payload.data());
    }
    return pos == payload.size();
}

}  // namespace csense::store
