// Byte-stream primitives for checkpoint/restore.
//
// Every resumable subsystem (cache, DRAM, telemetry bus, workload cursors,
// the scheduler itself) serializes its state through these two classes so
// snapshot encoding rules live in exactly one place: little-endian
// fixed-width integers, bit-exact doubles (raw IEEE-754 payload), and
// length-prefixed strings/blobs. The reader throws `snapshot_error` on any
// structural problem (truncation, impossible lengths) so malformed or
// version-skewed snapshots are rejected with a clear message instead of
// resuming a corrupt simulation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace camdn {

/// Raised on malformed snapshot input: truncation, bad magic, version
/// mismatch, geometry mismatch against the resuming configuration.
class snapshot_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Appends snapshot fields to a growing byte buffer. Each field is one
/// room check and one little-endian store: the buffer is kept sized to
/// its allocation and `size_` marks the written end, so appends never go
/// through the vector's element-wise insert path.
class snapshot_writer {
public:
    void u8(std::uint8_t v) { put_le<1>(v); }
    void b(bool v) { u8(v ? 1 : 0); }

    void u32(std::uint32_t v) { put_le<4>(v); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }

    void u64(std::uint64_t v) { put_le<8>(v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /// Raw IEEE-754 payload: round-trips bit-exactly, NaNs included.
    void d(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void str(const std::string& s) {
        u64(s.size());
        put_raw(s.data(), s.size());
    }

    /// Length-prefixed opaque blob (nested subsystem sections).
    void blob(const std::vector<std::uint8_t>& bytes) {
        u64(bytes.size());
        put_raw(bytes.data(), bytes.size());
    }

    /// Size hint: makes room for `n` more bytes in one exact allocation,
    /// so a caller that knows its section size (the cache's transparent
    /// lines run to megabytes) skips the doubling regrowth and its slack.
    /// Never changes the bytes.
    void reserve_more(std::size_t n) {
        if (buf_.size() - size_ >= n) return;
        buf_.reserve(size_ + n);
        buf_.resize(size_ + n);
    }

    /// The bytes written so far (trims the unwritten room first).
    const std::vector<std::uint8_t>& bytes() {
        buf_.resize(size_);
        return buf_;
    }
    std::vector<std::uint8_t> take() {
        buf_.resize(size_);
        size_ = 0;
        std::vector<std::uint8_t> out;
        out.swap(buf_);
        return out;
    }

private:
    /// Appends the low N bytes of `v`, least significant first (the byte
    /// loop folds to a single store).
    template <int N>
    void put_le(std::uint64_t v) {
        if (buf_.size() - size_ < N) grow(N);
        std::uint8_t* p = buf_.data() + size_;
        for (int i = 0; i < N; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
        size_ += N;
    }

    void put_raw(const void* data, std::size_t n) {
        if (n == 0) return;
        if (buf_.size() - size_ < n) grow(n);
        std::memcpy(buf_.data() + size_, data, n);
        size_ += n;
    }

    /// Fills the allocation first, then regrows geometrically.
    void grow(std::size_t n) {
        buf_.resize(std::max({size_ + n, 2 * buf_.size(), buf_.capacity()}));
    }

    std::vector<std::uint8_t> buf_;  // sized to its room; [0, size_) written
    std::size_t size_ = 0;
};

/// Consumes snapshot fields from a byte buffer; throws snapshot_error on
/// truncation. `done()` lets callers reject trailing garbage.
class snapshot_reader {
public:
    snapshot_reader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size) {}
    explicit snapshot_reader(const std::vector<std::uint8_t>& bytes)
        : snapshot_reader(bytes.data(), bytes.size()) {}

    std::uint8_t u8() {
        need(1);
        return data_[pos_++];
    }
    bool b() { return u8() != 0; }

    std::uint32_t u32() { return static_cast<std::uint32_t>(get_le<4>()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

    std::uint64_t u64() { return get_le<8>(); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double d() {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string str() {
        const std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char*>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    std::vector<std::uint8_t> blob() {
        const std::uint64_t n = u64();
        need(n);
        std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + n);
        pos_ += static_cast<std::size_t>(n);
        return out;
    }

    /// Element count for a following sequence, sanity-bounded so a corrupt
    /// length fails fast instead of driving a multi-gigabyte loop.
    std::uint64_t count(std::uint64_t min_elem_bytes = 1) {
        const std::uint64_t n = u64();
        if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes)
            throw snapshot_error(
                "snapshot truncated: sequence of " + std::to_string(n) +
                " elements does not fit in the remaining " +
                std::to_string(remaining()) + " bytes");
        return n;
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

private:
    /// One bounds check, then the little-endian assembly of N bytes (the
    /// shift-or chain folds to a single load).
    template <int N>
    std::uint64_t get_le() {
        need(N);
        const std::uint8_t* p = data_ + pos_;
        std::uint64_t v = 0;
        for (int i = 0; i < N; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        pos_ += N;
        return v;
    }

    void need(std::uint64_t n) const {
        if (n > remaining())
            throw snapshot_error("snapshot truncated at byte " +
                                 std::to_string(pos_) + ": need " +
                                 std::to_string(n) + " more, have " +
                                 std::to_string(remaining()));
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

}  // namespace camdn
