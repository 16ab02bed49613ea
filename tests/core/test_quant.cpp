/**
 * @file
 * Tests for the reduced-precision storage path: bf16/int8 conversion
 * helpers, fused-dequant embedding bags, the u8·s8 packed GEMM, and
 * end-to-end accuracy budgets of quantized forwards against fp32.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dlrm.hpp"
#include "core/embedding.hpp"
#include "core/embedding_store.hpp"
#include "core/errors.hpp"
#include "core/gemm.hpp"
#include "core/mlp.hpp"
#include "core/quant.hpp"
#include "core/simd.hpp"

namespace
{

using namespace dlrmopt::core;
using dlrmopt::RowIndex;

constexpr SimdLevel kLevels[] = {SimdLevel::Scalar, SimdLevel::Avx2,
                                 SimdLevel::Avx512};

/** Restores the process-wide dispatch level on scope exit. */
struct LevelGuard
{
    SimdLevel saved;
    LevelGuard() : saved(currentSimdLevel()) {}
    ~LevelGuard() { setSimdLevel(saved); }
};

bool
bitwiseEqual(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

float
maxAbsDiff(const float *a, const float *b, std::size_t n)
{
    float m = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

/** Bag inputs with varied bag lengths, including an empty bag. */
struct BagInputs
{
    std::vector<RowIndex> indices;
    std::vector<RowIndex> offsets{0};
    std::size_t samples = 0;

    BagInputs(std::size_t rows, std::size_t samples_,
              std::uint64_t seed)
        : samples(samples_)
    {
        for (std::size_t s = 0; s < samples; ++s) {
            const std::size_t len = s == 1 ? 0 : 1 + (s * 3) % 7;
            for (std::size_t l = 0; l < len; ++l) {
                indices.push_back(static_cast<RowIndex>(
                    dlrmopt::mix64(seed + s * 131 + l) % rows));
            }
            offsets.push_back(
                static_cast<RowIndex>(indices.size()));
        }
    }
};

TEST(QuantHelpers, Bf16RoundTripIsExactWidening)
{
    for (float v : {0.0f, -0.0f, 1.0f, -2.5f, 3.14159e-3f, 1e30f}) {
        const float w = bf16ToFp32(fp32ToBf16(v));
        // Truncation loses low mantissa bits but widening the stored
        // pattern is exact: re-truncating changes nothing.
        EXPECT_EQ(fp32ToBf16(w), fp32ToBf16(v));
        EXPECT_LE(std::fabs(w - v), std::fabs(v) * 0.008f);
    }
    EXPECT_THROW(parseEmbDtype("fp64"), std::invalid_argument);
    EXPECT_EQ(parseEmbDtype("bf16"), EmbDtype::Bf16);
    EXPECT_EQ(embDtypeName(EmbDtype::Int8), "int8");
    EXPECT_EQ(embDtypeBits(EmbDtype::Bf16), 16u);
}

TEST(QuantHelpers, Int8BlockQuantizationBoundsTheError)
{
    std::vector<float> src(37);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = std::sin(static_cast<float>(i)) * 3.0f - 1.0f;
    std::vector<std::uint8_t> codes(src.size());
    const QuantParams qp =
        quantizeBlockInt8(src.data(), src.size(), codes.data());
    for (std::size_t i = 0; i < src.size(); ++i) {
        const float deq =
            static_cast<float>(codes[i]) * qp.scale + qp.bias;
        EXPECT_LE(std::fabs(deq - src[i]), qp.scale * 0.51f) << i;
    }

    // A constant block dequantizes exactly.
    std::fill(src.begin(), src.end(), 0.75f);
    const QuantParams flat =
        quantizeBlockInt8(src.data(), src.size(), codes.data());
    EXPECT_EQ(codes[0], 0);
    EXPECT_FLOAT_EQ(static_cast<float>(codes[5]) * flat.scale +
                        flat.bias,
                    0.75f);
}

TEST(QuantEmbedding, QuantizedStorageShrinksStoredBytes)
{
    const EmbeddingTable f(256, 32, 7, EmbDtype::Fp32);
    const EmbeddingTable h(256, 32, 7, EmbDtype::Bf16);
    const EmbeddingTable q(256, 32, 7, EmbDtype::Int8);
    EXPECT_EQ(h.bytes() * 2, f.bytes());
    EXPECT_EQ(q.bytes(), f.bytes() / 4 + 256 * 2 * sizeof(float));
}

TEST(QuantEmbedding, FusedBagsAreBitwiseInvariantAcrossLevels)
{
    LevelGuard guard;
    for (const EmbDtype dtype : {EmbDtype::Bf16, EmbDtype::Int8}) {
        const EmbeddingTable t(512, 32, 11, dtype);
        const BagInputs in(512, 7, 23);
        std::vector<float> ref(in.samples * t.dim());
        t.bagRef(in.indices.data(), in.offsets.data(), in.samples,
                 ref.data());

        for (const SimdLevel lvl : kLevels) {
            setSimdLevel(lvl);
            std::vector<float> out(ref.size(), -1.0f);
            t.bag(in.indices.data(), in.offsets.data(), in.samples,
                  out.data());
            EXPECT_TRUE(bitwiseEqual(out, ref))
                << embDtypeName(dtype) << " @ " << simdLevelName(lvl);

            // Prefetching must never change the arithmetic.
            std::vector<float> pf_out(ref.size(), -2.0f);
            t.bag(in.indices.data(), in.offsets.data(), in.samples,
                  pf_out.data(), PrefetchSpec::paperDefault());
            EXPECT_TRUE(bitwiseEqual(pf_out, ref))
                << embDtypeName(dtype) << " pf @ "
                << simdLevelName(lvl);
        }
    }
}

TEST(QuantEmbedding, DegenerateShapesStayBitwiseInvariant)
{
    LevelGuard guard;
    for (const EmbDtype dtype : {EmbDtype::Bf16, EmbDtype::Int8}) {
        // dim 19: not a multiple of any vector width, so every level
        // exercises its scalar-mirror tail.
        {
            const EmbeddingTable t(64, 19, 3, dtype);
            const BagInputs in(64, 5, 17);
            std::vector<float> ref(in.samples * t.dim());
            t.bagRef(in.indices.data(), in.offsets.data(), in.samples,
                     ref.data());
            // The empty bag (sample 1) pools to exact zeros.
            for (std::size_t d = 0; d < t.dim(); ++d)
                EXPECT_EQ(ref[1 * t.dim() + d], 0.0f);
            for (const SimdLevel lvl : kLevels) {
                setSimdLevel(lvl);
                std::vector<float> out(ref.size(), -1.0f);
                t.bag(in.indices.data(), in.offsets.data(),
                      in.samples, out.data());
                EXPECT_TRUE(bitwiseEqual(out, ref))
                    << embDtypeName(dtype) << " dim 19 @ "
                    << simdLevelName(lvl);
            }
        }
        // Single-row table: every lookup hits row 0.
        {
            const EmbeddingTable t(1, 8, 5, dtype);
            const std::vector<RowIndex> idx(6, 0);
            const std::vector<RowIndex> off = {0, 3, 3, 6};
            std::vector<float> ref(3 * t.dim());
            t.bagRef(idx.data(), off.data(), 3, ref.data());
            for (const SimdLevel lvl : kLevels) {
                setSimdLevel(lvl);
                std::vector<float> out(ref.size(), -1.0f);
                t.bag(idx.data(), off.data(), 3, out.data());
                EXPECT_TRUE(bitwiseEqual(out, ref))
                    << embDtypeName(dtype) << " 1-row @ "
                    << simdLevelName(lvl);
            }
        }
    }
}

TEST(QuantEmbedding, SingleLookupBagEqualsDequantRow)
{
    for (const EmbDtype dtype :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
        const EmbeddingTable t(128, 24, 9, dtype);
        const RowIndex idx[] = {77};
        const RowIndex off[] = {0, 1};
        std::vector<float> bag(t.dim());
        t.bag(idx, off, 1, bag.data());
        std::vector<float> row(t.dim());
        t.dequantRow(77, row.data());
        // A one-lookup bag accumulates the dequantized row onto
        // zeros: x + 0 is exact, so the results match bitwise.
        EXPECT_TRUE(bitwiseEqual(bag, row)) << embDtypeName(dtype);
    }
}

TEST(QuantEmbedding, QuantizedBagsKeepBoundsChecks)
{
    for (const EmbDtype dtype : {EmbDtype::Bf16, EmbDtype::Int8}) {
        const EmbeddingTable t(32, 8, 1, dtype);
        const RowIndex idx[] = {5, 32}; // 32 is out of range
        const RowIndex off[] = {0, 2};
        std::vector<float> out(t.dim());
        EXPECT_THROW(t.bag(idx, off, 1, out.data()), IndexError)
            << embDtypeName(dtype);
    }
}

TEST(QuantEmbedding, AccuracyOfQuantizedRowsAgainstFp32)
{
    const std::size_t rows = 256, dim = 32;
    const EmbeddingTable f(rows, dim, 21, EmbDtype::Fp32);
    const EmbeddingTable h(rows, dim, 21, EmbDtype::Bf16);
    const EmbeddingTable q(rows, dim, 21, EmbDtype::Int8);
    std::vector<float> rf(dim), rq(dim);
    float fmax = 0.0f, herr = 0.0f, qerr = 0.0f;
    for (std::size_t r = 0; r < rows; ++r) {
        f.dequantRow(r, rf.data());
        for (float v : rf)
            fmax = std::max(fmax, std::fabs(v));
        h.dequantRow(r, rq.data());
        herr = std::max(herr, maxAbsDiff(rf.data(), rq.data(), dim));
        q.dequantRow(r, rq.data());
        qerr = std::max(qerr, maxAbsDiff(rf.data(), rq.data(), dim));
    }
    ASSERT_GT(fmax, 0.0f);
    // bf16 keeps 8 mantissa bits (~0.4% relative); int8 spends 8 bits
    // across the row's range (~0.2% of range per step).
    EXPECT_LE(herr, fmax * 0.008f);
    EXPECT_LE(qerr, fmax * 0.01f);
}

TEST(QuantIntegrity, FlipBitIsDetectedAndRepairedPerDtype)
{
    ModelConfig cfg;
    cfg.name = "quant-integrity";
    cfg.cls = ModelClass::RMC2;
    cfg.rows = 96;
    cfg.dim = 16;
    cfg.tables = 2;
    cfg.lookups = 4;
    cfg.bottomMlp = {8, 16};
    cfg.topMlp = {4, 1};

    for (const EmbDtype dtype :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
        auto store = EmbeddingStore::createMutable(cfg, 5, 32, dtype);
        ASSERT_EQ(store->dtype(), dtype);
        ASSERT_TRUE(store->findCorruptBlocks().empty())
            << embDtypeName(dtype);

        // Payload upset in (table 1, row 40) -> block 1.
        store->flipBit(1, 40, 3);
        EXPECT_FALSE(store->verifyBlock(1, 1)) << embDtypeName(dtype);
        EXPECT_TRUE(store->verifyBlock(1, 0));
        const auto corrupt = store->findCorruptBlocks();
        ASSERT_EQ(corrupt.size(), 1u) << embDtypeName(dtype);
        EXPECT_EQ(corrupt[0], (BlockRef{1, 1}));

        store->repairBlock(1, 1);
        EXPECT_TRUE(store->findCorruptBlocks().empty())
            << embDtypeName(dtype);
    }
}

TEST(QuantIntegrity, Int8MetadataFlipsAreDetectedToo)
{
    const std::size_t dim = 16;
    ModelConfig cfg;
    cfg.name = "quant-meta";
    cfg.cls = ModelClass::RMC2;
    cfg.rows = 64;
    cfg.dim = dim;
    cfg.tables = 1;
    cfg.lookups = 2;
    cfg.bottomMlp = {8, dim};
    cfg.topMlp = {4, 1};
    auto store = EmbeddingStore::createMutable(cfg, 9, 64,
                                               EmbDtype::Int8);

    // Bits past the code payload land in the row's scale, then bias.
    EXPECT_EQ(store->table(0).payloadBits(), dim * 8 + 64);
    store->flipBit(0, 10, dim * 8 + 7); // scale mantissa bit
    EXPECT_FALSE(store->verifyBlock(0, 0));
    store->repairBlock(0, 0);
    EXPECT_TRUE(store->verifyBlock(0, 0));

    store->flipBit(0, 10, dim * 8 + 32 + 1); // bias bit
    EXPECT_FALSE(store->verifyBlock(0, 0));
    store->repairBlock(0, 0);
    EXPECT_TRUE(store->verifyBlock(0, 0));

    EXPECT_THROW(store->flipBit(0, 10, dim * 8 + 64),
                 std::invalid_argument);
}

TEST(QuantGemm, Int8PackedGemmBitwiseInvariantAcrossLevelsAndTiles)
{
    // Awkward shape on purpose: odd depth (pads to even), out_dim not
    // a multiple of the panel width, batch not a multiple of any mr.
    const std::size_t batch = 5, in_dim = 19, out_dim = 21;
    std::vector<float> in(batch * in_dim), w(out_dim * in_dim),
        bias(out_dim);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = std::sin(static_cast<float>(i) * 0.7f);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = std::cos(static_cast<float>(i) * 0.3f) * 0.5f;
    for (std::size_t i = 0; i < bias.size(); ++i)
        bias[i] = 0.01f * static_cast<float>(i) - 0.1f;

    const PackedWeightsInt8 pack(w.data(), in_dim, out_dim);
    EXPECT_EQ(pack.paddedK(), 20u);
    std::vector<std::uint8_t> qin(batch * pack.activationStride());
    quantizeActivationsInt8(in.data(), batch, in_dim,
                            pack.activationStride(), qin.data());

    std::vector<float> ref(batch * out_dim, -7.0f);
    denseLayerForwardPackedInt8Level(SimdLevel::Scalar, qin.data(),
                                     batch, pack, bias.data(),
                                     ref.data(), true);

    for (const SimdLevel lvl : kLevels) {
        for (const std::size_t mr : {std::size_t(1), std::size_t(2),
                                     std::size_t(4), std::size_t(6)}) {
            std::vector<float> out(ref.size(), -3.0f);
            denseLayerForwardPackedInt8Level(
                lvl, qin.data(), batch, pack, bias.data(), out.data(),
                true, GemmTile{mr, 0});
            EXPECT_TRUE(bitwiseEqual(out, ref))
                << simdLevelName(lvl) << " mr " << mr;
        }
    }
}

TEST(QuantGemm, Int8GemmIsBatchPositionInvariant)
{
    // Identical samples must produce bitwise-identical output rows
    // regardless of their position in the batch or the tile in use.
    const std::size_t batch = 7, in_dim = 24, out_dim = 16;
    std::vector<float> in(batch * in_dim), w(out_dim * in_dim);
    for (std::size_t i = 0; i < in_dim; ++i)
        in[i] = std::sin(static_cast<float>(i));
    for (std::size_t b = 1; b < batch; ++b)
        std::memcpy(in.data() + b * in_dim, in.data(),
                    in_dim * sizeof(float));
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = std::cos(static_cast<float>(i) * 0.11f);

    const PackedWeightsInt8 pack(w.data(), in_dim, out_dim);
    std::vector<std::uint8_t> qin(batch * pack.activationStride());
    quantizeActivationsInt8(in.data(), batch, in_dim,
                            pack.activationStride(), qin.data());
    std::vector<float> out(batch * out_dim);
    denseLayerForwardPackedInt8(qin.data(), batch, pack, nullptr,
                                out.data(), false);
    for (std::size_t b = 1; b < batch; ++b) {
        EXPECT_EQ(std::memcmp(out.data(), out.data() + b * out_dim,
                              out_dim * sizeof(float)),
                  0)
            << "row " << b;
    }
}

TEST(QuantGemm, Int8GemmRowIgnoresItsBatchmates)
{
    // Each row is quantized with its own scale, so a sample forwarded
    // alone and inside a batch of very different rows (here 100x its
    // range) yields the same bits at every level.
    const std::size_t batch = 5, in_dim = 19, out_dim = 21;
    std::vector<float> in(batch * in_dim), w(out_dim * in_dim),
        bias(out_dim);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = std::sin(static_cast<float>(i) * 0.7f) *
                (i < in_dim ? 1.0f : 100.0f);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = std::cos(static_cast<float>(i) * 0.3f) * 0.5f;
    for (std::size_t i = 0; i < bias.size(); ++i)
        bias[i] = 0.01f * static_cast<float>(i) - 0.1f;
    const PackedWeightsInt8 pack(w.data(), in_dim, out_dim);

    LevelGuard guard;
    for (const SimdLevel lvl : kLevels) {
        setSimdLevel(lvl);
        std::vector<std::uint8_t> qscratch;
        std::vector<float> alone(out_dim), batched(batch * out_dim);
        denseLayerForwardInt8(in.data(), 1, pack, bias.data(),
                              alone.data(), true, qscratch);
        denseLayerForwardInt8(in.data(), batch, pack, bias.data(),
                              batched.data(), true, qscratch);
        EXPECT_EQ(std::memcmp(alone.data(), batched.data(),
                              out_dim * sizeof(float)),
                  0)
            << simdLevelName(lvl);
    }
}

TEST(QuantGemm, LazyInt8PacksBuildOnceUnderConcurrentFirstUse)
{
    // An MLP nobody prepared builds its u8·s8 packs on the first int8
    // forward. Threads racing into that first forward, and a copy
    // made before it, must all see the same packs: every output
    // equals a reference MLP's. (1040x1024 spills kInt8MinPackBytes,
    // so layer 0 runs u8·s8.)
    const std::vector<std::size_t> dims{1040, 1024, 8};
    const Mlp ref(dims, 5);
    ASSERT_TRUE(ref.int8Layer(0));
    Tensor in(6, dims.front());
    in.randomize(21);
    Tensor want;
    ref.forward(in, want, true);

    const Mlp mlp(dims, 5);
    const Mlp copy = mlp;
    EXPECT_EQ(copy.int8PackedBytes(), 0u);
    std::vector<Tensor> got(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
        threads.emplace_back([&, i] {
            (i % 2 == 0 ? mlp : copy).forward(in, got[i], true);
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(copy.int8PackedBytes(), ref.int8PackedBytes());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].size(), want.size());
        EXPECT_EQ(std::memcmp(got[i].data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "thread " << i;
    }
}

TEST(QuantGemm, Int8GemmTracksTheFp32ReferenceWithinBudget)
{
    const std::size_t batch = 6, in_dim = 32, out_dim = 24;
    std::vector<float> in(batch * in_dim), w(out_dim * in_dim),
        bias(out_dim);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = std::sin(static_cast<float>(i) * 1.3f);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = std::cos(static_cast<float>(i) * 0.7f) * 0.25f;
    for (std::size_t i = 0; i < bias.size(); ++i)
        bias[i] = 0.05f * static_cast<float>(i % 5);

    std::vector<float> ref(batch * out_dim);
    denseLayerForwardRef(in.data(), batch, in_dim, w.data(),
                         bias.data(), out_dim, ref.data(), true);

    const PackedWeightsInt8 pack(w.data(), in_dim, out_dim);
    std::vector<std::uint8_t> qscratch;
    std::vector<float> out(batch * out_dim);
    denseLayerForwardInt8(in.data(), batch, pack, bias.data(),
                          out.data(), true, qscratch);

    float ref_max = 0.0f;
    for (float v : ref)
        ref_max = std::max(ref_max, std::fabs(v));
    EXPECT_LE(maxAbsDiff(out.data(), ref.data(), out.size()),
              std::max(1.0f, ref_max) * 0.05f);
}

/** A small but structurally faithful model for accuracy tests. */
ModelConfig
quantModel(std::size_t dim = 16)
{
    ModelConfig m;
    m.name = "quant-acc";
    m.cls = ModelClass::RMC2;
    m.rows = 512;
    m.dim = dim;
    m.tables = 3;
    m.lookups = 4;
    m.bottomMlp = {24, 16, dim};
    m.topMlp = {8, 1};
    return m;
}

SparseBatch
makeBatch(const ModelConfig& m, std::size_t batch, std::uint64_t seed,
          bool with_empty_bags = false)
{
    SparseBatch b;
    b.batchSize = batch;
    b.indices.resize(m.tables);
    b.offsets.resize(m.tables);
    for (std::size_t t = 0; t < m.tables; ++t) {
        b.offsets[t].push_back(0);
        for (std::size_t s = 0; s < batch; ++s) {
            const std::size_t len =
                with_empty_bags && (s + t) % 3 == 0 ? 0 : m.lookups;
            for (std::size_t l = 0; l < len; ++l) {
                b.indices[t].push_back(static_cast<RowIndex>(
                    dlrmopt::mix64(seed + t * 1000 + s * 31 + l) %
                    m.rows));
            }
            b.offsets[t].push_back(
                static_cast<RowIndex>(b.indices[t].size()));
        }
    }
    return b;
}

TEST(QuantAccuracy, PredictionBudgetsHoldAcrossBatchesAndLevels)
{
    LevelGuard guard;
    const ModelConfig cfg = quantModel();
    DlrmModel model(cfg, 42);
    model.attachQuantizedStore(
        EmbeddingStore::create(cfg, 42, 256, EmbDtype::Bf16));
    model.attachQuantizedStore(
        EmbeddingStore::create(cfg, 42, 256, EmbDtype::Int8));

    for (const std::size_t batch :
         {std::size_t(1), std::size_t(5), std::size_t(64)}) {
        const SparseBatch sparse = makeBatch(cfg, batch, 7);
        Tensor dense(batch, cfg.denseDim());
        dense.randomize(13);

        for (const SimdLevel lvl : kLevels) {
            setSimdLevel(lvl);
            DlrmWorkspace ws;
            model.forward(dense, sparse, ws);
            Tensor fp32_pred = ws.pred; // copy

            model.forward(dense, sparse, ws, {}, EmbDtype::Bf16);
            const float bf16_err = maxAbsDiff(
                fp32_pred.data(), ws.pred.data(), batch);
            EXPECT_LE(bf16_err, 0.03f)
                << "bf16 batch " << batch << " @ "
                << simdLevelName(lvl);

            model.forward(dense, sparse, ws, {}, EmbDtype::Int8);
            const float int8_err = maxAbsDiff(
                fp32_pred.data(), ws.pred.data(), batch);
            EXPECT_LE(int8_err, 0.08f)
                << "int8 batch " << batch << " @ "
                << simdLevelName(lvl);
        }
    }
}

TEST(QuantAccuracy, OddDimAndEmptyBagsStayWithinBudget)
{
    // dim 19 forces scalar-mirror tails through the whole stack, and
    // a third of the bags are empty (pool to zeros at every dtype).
    const ModelConfig cfg = quantModel(19);
    DlrmModel model(cfg, 11);
    model.attachQuantizedStore(
        EmbeddingStore::create(cfg, 11, 256, EmbDtype::Bf16));
    model.attachQuantizedStore(
        EmbeddingStore::create(cfg, 11, 256, EmbDtype::Int8));

    const std::size_t batch = 9;
    const SparseBatch sparse = makeBatch(cfg, batch, 3, true);
    Tensor dense(batch, cfg.denseDim());
    dense.randomize(5);

    DlrmWorkspace ws;
    model.forward(dense, sparse, ws);
    Tensor fp32_pred = ws.pred;

    model.forward(dense, sparse, ws, {}, EmbDtype::Bf16);
    EXPECT_LE(maxAbsDiff(fp32_pred.data(), ws.pred.data(), batch),
              0.03f);
    model.forward(dense, sparse, ws, {}, EmbDtype::Int8);
    EXPECT_LE(maxAbsDiff(fp32_pred.data(), ws.pred.data(), batch),
              0.08f);
}

TEST(QuantAccuracy, SpillingLayerRunsU8S8OnlyUnderInt8Bags)
{
    // A bottom layer whose fp32 pack spills kInt8MinPackBytes runs the
    // u8·s8 engine when int8 bags are served, and stays within the
    // int8 budget. Its packs are built when the int8 store reaches the
    // model, never by a forward; an int8 request on a model with no
    // int8 store runs at the primary's precision throughout.
    LevelGuard guard;
    ModelConfig cfg = quantModel();
    cfg.bottomMlp = {1040, 1024, cfg.dim};
    const std::size_t batch = 6;
    const SparseBatch sparse = makeBatch(cfg, batch, 29);
    Tensor dense(batch, cfg.denseDim());
    dense.randomize(31);

    DlrmModel model(cfg, 42);
    ASSERT_TRUE(model.bottomMlp().int8Layer(0));
    EXPECT_FALSE(model.int8Mlps(EmbDtype::Int8));
    DlrmWorkspace ws;
    model.forward(dense, sparse, ws);
    const Tensor fp32_pred = ws.pred;
    model.forward(dense, sparse, ws, {}, EmbDtype::Int8);
    EXPECT_EQ(std::memcmp(ws.pred.data(), fp32_pred.data(),
                          batch * sizeof(float)),
              0);
    EXPECT_EQ(model.bottomMlp().int8PackedBytes(), 0u);

    model.attachQuantizedStore(
        EmbeddingStore::create(cfg, 42, 256, EmbDtype::Bf16));
    EXPECT_EQ(model.bottomMlp().int8PackedBytes(), 0u);
    EXPECT_FALSE(model.int8Mlps(EmbDtype::Bf16));
    model.attachQuantizedStore(
        EmbeddingStore::create(cfg, 42, 256, EmbDtype::Int8));
    EXPECT_GT(model.bottomMlp().int8PackedBytes(), 0u);
    EXPECT_TRUE(model.int8Mlps(EmbDtype::Int8));

    for (const SimdLevel lvl : kLevels) {
        setSimdLevel(lvl);
        model.forward(dense, sparse, ws);
        const Tensor ref = ws.pred;
        // The same int8 bags through fp32 MLPs: the u8·s8 layer must
        // change the bits, and the whole forward must stay in budget.
        DlrmWorkspace fp32_mlp;
        model.bottomForward(dense, fp32_mlp.bottomOut);
        model.embeddingForward(sparse, fp32_mlp.embOut, {},
                               EmbDtype::Int8);
        model.interactionForward(fp32_mlp.bottomOut, fp32_mlp.embOut,
                                 batch, fp32_mlp.interOut);
        model.topForward(fp32_mlp.interOut, fp32_mlp.pred);

        model.forward(dense, sparse, ws, {}, EmbDtype::Int8);
        EXPECT_NE(std::memcmp(ws.pred.data(), fp32_mlp.pred.data(),
                              batch * sizeof(float)),
                  0)
            << simdLevelName(lvl);
        EXPECT_LE(maxAbsDiff(ref.data(), ws.pred.data(), batch), 0.08f)
            << simdLevelName(lvl);
    }
}

TEST(QuantAccuracy, QuantizedEmbeddingStageIsBitwiseAcrossLevels)
{
    // The model-level probe of the kernel invariance contract: the
    // pooled embedding stage (the part that actually reads quantized
    // bytes) is bitwise-identical at every SimdLevel. (Full
    // predictions are only budget-comparable across levels because
    // the vector sigmoid is a polynomial approximation of libm.)
    LevelGuard guard;
    const ModelConfig cfg = quantModel();
    DlrmModel model(cfg, 42);
    model.attachQuantizedStore(
        EmbeddingStore::create(cfg, 42, 256, EmbDtype::Bf16));
    model.attachQuantizedStore(
        EmbeddingStore::create(cfg, 42, 256, EmbDtype::Int8));
    const SparseBatch sparse = makeBatch(cfg, 6, 19);

    for (const EmbDtype dtype : {EmbDtype::Bf16, EmbDtype::Int8}) {
        setSimdLevel(SimdLevel::Scalar);
        Tensor ref;
        model.embeddingForward(sparse, ref, {}, dtype);
        for (const SimdLevel lvl :
             {SimdLevel::Avx2, SimdLevel::Avx512}) {
            setSimdLevel(lvl);
            Tensor out;
            model.embeddingForward(sparse, out, {}, dtype);
            ASSERT_EQ(out.rows(), ref.rows());
            ASSERT_EQ(out.cols(), ref.cols());
            EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                                  ref.rows() * ref.cols() *
                                      sizeof(float)),
                      0)
                << embDtypeName(dtype) << " @ " << simdLevelName(lvl);
        }
    }
}

} // namespace
