// Equivalence tests for the snapshot codec (common/snapshot_io.h).
//
// The writer appends each fixed-width field as one little-endian word and
// accepts exact size hints; none of that may change a byte. Randomized
// field sequences are encoded by the writer — with and without
// reserve_more() — and by a byte-at-a-time reference encoder, and must
// match exactly. The reader must round-trip every sequence and reject
// every truncation of it with snapshot_error. The subsystems' exact size
// hints (state_bytes) must equal what their save_state really appends.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "cache/shared_cache.h"
#include "common/snapshot_io.h"
#include "dram/dram_system.h"

namespace camdn {
namespace {

/// The specification: every field byte by byte, least significant first.
class reference_encoder {
public:
    void le(std::uint64_t v, int width) {
        for (int i = 0; i < width; ++i)
            out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
    void bytes(const std::uint8_t* p, std::size_t n) {
        le(n, 8);
        for (std::size_t i = 0; i < n; ++i) out.push_back(p[i]);
    }
    std::vector<std::uint8_t> out;
};

enum class kind { u8, b, u32, i32, u64, i64, d, str, blob };

struct field {
    kind k = kind::u8;
    std::uint64_t bits = 0;  // integer value or raw double payload
    std::vector<std::uint8_t> payload;  // str / blob contents
};

std::uint64_t edge_or_random(std::mt19937_64& rng) {
    static const std::uint64_t edges[] = {
        0, 1, 0x7f, 0x80, 0xff, 0x100, 0xffff, 0x7fffffff, 0x80000000,
        0xffffffff, 0x100000000ull, std::numeric_limits<std::uint64_t>::max(),
        0x8000000000000000ull, 0x0123456789abcdefull};
    if (rng() % 3 == 0) return edges[rng() % (sizeof edges / sizeof edges[0])];
    return rng();
}

std::vector<field> random_fields(std::uint64_t seed, std::size_t count) {
    std::mt19937_64 rng(seed);
    std::vector<field> fields(count);
    for (field& f : fields) {
        f.k = static_cast<kind>(rng() % 9);
        f.bits = edge_or_random(rng);
        switch (f.k) {
            case kind::u8: f.bits &= 0xff; break;
            case kind::b: f.bits &= 1; break;
            case kind::u32:
            case kind::i32: f.bits &= 0xffffffff; break;
            case kind::str:
            case kind::blob:
                f.payload.resize(rng() % 24);
                for (auto& c : f.payload) c = static_cast<std::uint8_t>(rng());
                break;
            default: break;
        }
    }
    return fields;
}

std::vector<std::uint8_t> reference_bytes(const std::vector<field>& fields) {
    reference_encoder ref;
    for (const field& f : fields) {
        switch (f.k) {
            case kind::u8:
            case kind::b: ref.le(f.bits, 1); break;
            case kind::u32:
            case kind::i32: ref.le(f.bits, 4); break;
            case kind::u64:
            case kind::i64:
            case kind::d: ref.le(f.bits, 8); break;
            case kind::str:
            case kind::blob: ref.bytes(f.payload.data(), f.payload.size()); break;
        }
    }
    return ref.out;
}

/// Encodes with the real writer; `hint_seed` != 0 sprinkles size hints
/// (exact, short and oversized) between the fields.
std::vector<std::uint8_t> writer_bytes(const std::vector<field>& fields,
                                       std::uint64_t hint_seed) {
    snapshot_writer w;
    std::mt19937_64 rng(hint_seed);
    if (hint_seed != 0) w.reserve_more(rng() % 64);
    for (const field& f : fields) {
        if (hint_seed != 0 && rng() % 4 == 0) w.reserve_more(rng() % 256);
        switch (f.k) {
            case kind::u8: w.u8(static_cast<std::uint8_t>(f.bits)); break;
            case kind::b: w.b(f.bits != 0); break;
            case kind::u32: w.u32(static_cast<std::uint32_t>(f.bits)); break;
            case kind::i32:
                w.i32(static_cast<std::int32_t>(static_cast<std::uint32_t>(f.bits)));
                break;
            case kind::u64: w.u64(f.bits); break;
            case kind::i64: w.i64(static_cast<std::int64_t>(f.bits)); break;
            case kind::d: {
                double v;
                std::memcpy(&v, &f.bits, sizeof v);
                w.d(v);
                break;
            }
            case kind::str:
                w.str(std::string(f.payload.begin(), f.payload.end()));
                break;
            case kind::blob: w.blob(f.payload); break;
        }
    }
    return w.take();
}

/// Decodes `fields` back from `bytes`, checking each value; throws
/// snapshot_error when the bytes run out.
void read_back(const std::vector<std::uint8_t>& bytes,
               const std::vector<field>& fields) {
    snapshot_reader r(bytes);
    for (std::size_t i = 0; i < fields.size(); ++i) {
        const field& f = fields[i];
        switch (f.k) {
            case kind::u8: EXPECT_EQ(r.u8(), f.bits) << i; break;
            case kind::b: EXPECT_EQ(r.b(), f.bits != 0) << i; break;
            case kind::u32: EXPECT_EQ(r.u32(), f.bits) << i; break;
            case kind::i32:
                EXPECT_EQ(r.i32(), static_cast<std::int32_t>(
                                       static_cast<std::uint32_t>(f.bits)))
                    << i;
                break;
            case kind::u64: EXPECT_EQ(r.u64(), f.bits) << i; break;
            case kind::i64:
                EXPECT_EQ(r.i64(), static_cast<std::int64_t>(f.bits)) << i;
                break;
            case kind::d: {
                const double v = r.d();
                std::uint64_t bits;
                std::memcpy(&bits, &v, sizeof bits);
                EXPECT_EQ(bits, f.bits) << i;  // NaN payloads included
                break;
            }
            case kind::str:
                EXPECT_EQ(r.str(),
                          std::string(f.payload.begin(), f.payload.end()))
                    << i;
                break;
            case kind::blob: EXPECT_EQ(r.blob(), f.payload) << i; break;
        }
    }
    EXPECT_TRUE(r.done());
}

TEST(snapshot_codec, writer_matches_bytewise_reference) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const auto fields = random_fields(seed, 1 + seed % 97);
        const auto expected = reference_bytes(fields);
        ASSERT_EQ(writer_bytes(fields, 0), expected) << "seed " << seed;
        ASSERT_EQ(writer_bytes(fields, seed), expected)
            << "seed " << seed << " with size hints";
    }
}

TEST(snapshot_codec, reader_round_trips_writer_output) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const auto fields = random_fields(seed, 1 + seed % 97);
        SCOPED_TRACE("seed " + std::to_string(seed));
        read_back(writer_bytes(fields, seed), fields);
    }
}

TEST(snapshot_codec, every_truncation_is_rejected) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const auto fields = random_fields(seed, 1 + seed % 29);
        const auto bytes = writer_bytes(fields, 0);
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            const std::vector<std::uint8_t> prefix(bytes.begin(),
                                                   bytes.begin() + cut);
            EXPECT_THROW(read_back(prefix, fields), snapshot_error)
                << "seed " << seed << " cut at " << cut << " of "
                << bytes.size();
        }
    }
}

TEST(snapshot_codec, exact_hint_leaves_no_slack) {
    snapshot_writer w;
    w.u32(7);
    w.reserve_more(8 * 1000);
    for (std::uint64_t i = 0; i < 1000; ++i) w.u64(i);
    const std::vector<std::uint8_t> bytes = w.take();
    EXPECT_EQ(bytes.size(), 4u + 8 * 1000);
    EXPECT_EQ(bytes.capacity(), bytes.size());  // one exact allocation
}

TEST(snapshot_codec, bytes_view_then_more_appends) {
    // bytes() trims to the written end; appending afterwards must carry
    // on from there, and take() must hand over the same bytes.
    snapshot_writer w;
    w.u64(1);
    EXPECT_EQ(w.bytes().size(), 8u);
    w.u32(2);
    w.str("abc");
    EXPECT_EQ(w.bytes().size(), 8u + 4 + 8 + 3);
    const std::vector<std::uint8_t> seen = w.bytes();
    EXPECT_EQ(w.take(), seen);
    EXPECT_TRUE(w.take().empty());
}

// ---- exact size hints of the subsystems ---------------------------------

template <typename T>
std::size_t saved_size(const T& subsystem) {
    snapshot_writer w;
    subsystem.save_state(w);
    return w.bytes().size();
}

TEST(snapshot_codec, state_bytes_equal_saved_sizes) {
    dram::dram_system dram{dram::dram_config{}};
    cache::cache_config cc;
    cc.total_bytes = mib(1);
    cache::shared_cache cache{cc, dram};
    EXPECT_EQ(dram.state_bytes(), saved_size(dram));
    EXPECT_EQ(cache.state_bytes(), saved_size(cache));
    EXPECT_EQ(cache.pages().state_bytes(), saved_size(cache.pages()));

    // Warm every variable-length part: regulators, per-task counters,
    // held pages and live CPTs.
    dram.set_task_share(2, 0.25);
    for (task_id t = 0; t < 3; ++t) {
        for (int i = 0; i < 50; ++i)
            cache.transparent_access(
                static_cast<addr_t>(i * 3 + t) * line_bytes, i % 2 == 0,
                static_cast<cycle_t>(i), t);
        dram.access_burst(static_cast<addr_t>(t) * kib(64), 40, false, 0, t);
        const auto pages = cache.pages().try_allocate(t, 2 + t);
        ASSERT_TRUE(pages.has_value());
        auto& cpt = cache.cpt(t);
        for (std::uint32_t v = 0; v < pages->size(); ++v)
            cpt.map(v, (*pages)[v]);
        EXPECT_EQ(cpt.state_bytes(), saved_size(cpt));
    }
    EXPECT_EQ(dram.state_bytes(), saved_size(dram));
    EXPECT_EQ(cache.state_bytes(), saved_size(cache));
    EXPECT_EQ(cache.pages().state_bytes(), saved_size(cache.pages()));
}

}  // namespace
}  // namespace camdn
