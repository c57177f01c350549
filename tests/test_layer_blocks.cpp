// Tests for LBM layer-block segmentation and the first-fit region layout.
#include <gtest/gtest.h>

#include "model/layer_blocks.h"
#include "model/model_zoo.h"

namespace camdn::model {
namespace {

model tiny_chain(std::initializer_list<std::uint64_t> output_bytes) {
    model m;
    m.name = "tiny";
    int i = 0;
    for (auto bytes : output_bytes) {
        layer l;
        l.name = "l" + std::to_string(i++);
        l.kind = layer_kind::elementwise;
        l.m = bytes;
        l.input_bytes = bytes;
        l.output_bytes = bytes;
        m.layers.push_back(l);
    }
    return m;
}

TEST(layout_block, two_layer_block_holds_both_outputs) {
    const model m = tiny_chain({kib(64), kib(64)});
    const layer_block b = layout_block(m, 0, 1);
    EXPECT_EQ(b.size(), 2u);
    // Layer 0's output is live while layer 1 produces: disjoint offsets.
    EXPECT_NE(b.out_offset[0], b.out_offset[1]);
    EXPECT_EQ(b.peak_bytes, 2 * kib(64));
}

TEST(layout_block, dead_tensors_reuse_space) {
    // Chain of 4: output i dies once layer i+1 ran, so slot reuse keeps the
    // extent at roughly two live tensors, not four.
    const model m = tiny_chain({kib(32), kib(32), kib(32), kib(32)});
    const layer_block b = layout_block(m, 0, 3);
    EXPECT_LE(b.peak_bytes, 2 * kib(32));
}

TEST(layout_block, residual_extends_lifetime) {
    model m = tiny_chain({kib(16), kib(16), kib(16), kib(16)});
    m.layers[3].residual_from = 0;  // layer 0's output must survive to 3
    const layer_block b = layout_block(m, 0, 3);
    EXPECT_GE(b.peak_bytes, 3 * kib(16));  // 0 alive + producer/consumer pair
    // Offsets of simultaneously live tensors are disjoint.
    EXPECT_NE(b.out_offset[0], b.out_offset[1]);
    EXPECT_NE(b.out_offset[0], b.out_offset[2]);
    EXPECT_NE(b.out_offset[0], b.out_offset[3]);
}

TEST(layout_block, offsets_are_line_aligned) {
    const model m = tiny_chain({100, 200, 300});
    const layer_block b = layout_block(m, 0, 2);
    for (auto off : b.out_offset) EXPECT_EQ(off % line_bytes, 0u);
}

TEST(segmentation, respects_budget) {
    const model m = tiny_chain({kib(64), kib(64), kib(64), kib(64)});
    const auto blocks = segment_layer_blocks(m, kib(100), 6);
    for (const auto& b : blocks) {
        if (b.size() > 1) {
            EXPECT_LE(b.peak_bytes, kib(100));
        }
    }
}

TEST(segmentation, respects_max_layers) {
    const model m = tiny_chain({64, 64, 64, 64, 64, 64, 64, 64, 64, 64});
    const auto blocks = segment_layer_blocks(m, mib(1), 3);
    for (const auto& b : blocks) EXPECT_LE(b.size(), 3u);
}

TEST(segmentation, covers_every_layer_exactly_once) {
    const model m = tiny_chain({kib(1), kib(512), kib(1), kib(2048), kib(1)});
    const auto blocks = segment_layer_blocks(m, kib(600), 6);
    std::vector<int> covered(m.layers.size(), 0);
    for (const auto& b : blocks) {
        EXPECT_LE(b.first, b.last);
        for (std::uint32_t i = b.first; i <= b.last; ++i) ++covered[i];
    }
    for (int c : covered) EXPECT_EQ(c, 1);
}

TEST(segmentation, oversized_layer_forms_singleton_block) {
    const model m = tiny_chain({kib(1), mib(64), kib(1)});
    const auto blocks = segment_layer_blocks(m, mib(1), 6);
    bool found_singleton = false;
    for (const auto& b : blocks)
        if (b.first <= 1 && 1 <= b.last) found_singleton = b.size() == 1 || b.first == 1;
    EXPECT_TRUE(found_singleton);
}

// Property check over the real zoo: layouts never overlap live tensors.
class block_layout_property : public ::testing::TestWithParam<std::string> {};

TEST_P(block_layout_property, live_ranges_never_overlap) {
    const auto& m = model_by_abbr(GetParam());
    const auto blocks = segment_layer_blocks(m, mib(8), 6);
    for (const auto& b : blocks) {
        for (std::uint32_t i = b.first; i <= b.last; ++i) {
            for (std::uint32_t j = i + 1; j <= b.last; ++j) {
                // j's output is born while i's output may still be live iff
                // i's last consumer is at or after j.
                std::uint32_t last_use = std::min(i + 1, b.last);
                for (std::uint32_t t = i + 1; t <= b.last; ++t)
                    if (m.layers[t].residual_from == static_cast<std::int32_t>(i))
                        last_use = std::max(last_use, t);
                if (last_use < j) continue;  // i dead before j born
                const auto io = b.offset_of(i);
                const auto jo = b.offset_of(j);
                const auto isz = round_up(std::max<std::uint64_t>(
                                              m.layers[i].output_bytes, 1),
                                          line_bytes);
                const auto jsz = round_up(std::max<std::uint64_t>(
                                              m.layers[j].output_bytes, 1),
                                          line_bytes);
                EXPECT_TRUE(io + isz <= jo || jo + jsz <= io)
                    << m.name << " block [" << b.first << "," << b.last
                    << "] layers " << i << "," << j;
            }
        }
    }
}

TEST_P(block_layout_property, extent_bounds_sum_of_outputs) {
    const auto& m = model_by_abbr(GetParam());
    const auto blocks = segment_layer_blocks(m, mib(8), 6);
    for (const auto& b : blocks) {
        std::uint64_t sum = 0;
        for (std::uint32_t i = b.first; i <= b.last; ++i)
            sum += round_up(std::max<std::uint64_t>(m.layers[i].output_bytes, 1),
                            line_bytes);
        EXPECT_LE(b.peak_bytes, sum);
        EXPECT_GT(b.peak_bytes, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(all_models, block_layout_property,
                         ::testing::Values("RS.", "MB.", "EF.", "VT.", "BE.",
                                           "GN.", "WV.", "PP."));

}  // namespace
}  // namespace camdn::model
