/**
 * @file
 * Multi-layer perceptron built from dense layers.
 *
 * DLRM uses two MLPs: the bottom MLP transforms dense (continuous)
 * features into the embedding dimension, and the top MLP maps the
 * feature-interaction output to a click-through-rate prediction
 * (Fig. 2 of the paper).
 */

#ifndef DLRMOPT_CORE_MLP_HPP
#define DLRMOPT_CORE_MLP_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/gemm.hpp"
#include "core/tensor.hpp"

namespace dlrmopt::core
{

/**
 * A feed-forward MLP. Hidden layers use ReLU; the final layer is
 * linear (a sigmoid is applied separately for CTR outputs).
 */
class Mlp
{
  public:
    /** Creates an empty MLP (no layers). */
    Mlp() = default;

    /**
     * Builds an MLP from a size list.
     *
     * @param dims Layer sizes including the input dimension, e.g.
     *             {256, 128, 128} is a 256-input MLP with two layers.
     * @param seed Seed for deterministic weight initialization.
     */
    Mlp(const std::vector<std::size_t>& dims, std::uint64_t seed);

    /**
     * Rebuilds an MLP from explicit layer parameters (a snapshot's
     * MLP section): weights[l] is [dims[l+1] x dims[l]], biases[l]
     * has dims[l+1] entries. Both packed-weight engines build from
     * the adopted fp32 weights, so forwards through a loaded MLP are
     * bitwise-identical to the saved one's at either precision.
     *
     * @throws std::invalid_argument on a size list shorter than 2 or
     *         any layer whose weight/bias shape mismatches @p dims.
     */
    Mlp(const std::vector<std::size_t>& dims, std::vector<Tensor> weights,
        std::vector<std::vector<float>> biases);

    /** Input feature dimension. */
    std::size_t inputDim() const { return _dims.empty() ? 0 : _dims.front(); }

    /** Output feature dimension. */
    std::size_t outputDim() const { return _dims.empty() ? 0 : _dims.back(); }

    /** Number of dense layers. */
    std::size_t numLayers() const { return _weights.size(); }

    /** Layer size list including the input dimension. */
    const std::vector<std::size_t>& dims() const { return _dims; }

    /**
     * Multiply-accumulate count for one sample (2 * sum of products of
     * consecutive dims). Used by the analytic timing model.
     */
    double flopsPerSample() const;

    /**
     * Fp32 panel-pack size above which a layer runs the u8·s8 engine
     * under int8 storage. Measured per layer (EXPERIMENTS.md, "u8·s8
     * MLP engine"), u8·s8 wins at every batch size only where the
     * fp32 weights far exceed the 2 MB per-core L2 — rm1's 2048x2048
     * layer (16 MB, 2-5x) — and loses at m >= 4 on layers that fit
     * or just fill it (2048x256 at 2 MB: 0.46-0.63x). The cut sits
     * between, and is a constant rather than the host's L2 so that a
     * model's int8 predictions do not depend on the host. The choice
     * depends on the layer only, never on the batch size: a row's
     * bits must not depend on the group it is coalesced with.
     */
    static constexpr std::size_t kInt8MinPackBytes = std::size_t{4}
                                                     << 20;

    /**
     * Runs the MLP on a batch.
     *
     * @param in Input activations [batch x inputDim()].
     * @param out Output activations; reshaped to [batch x outputDim()].
     *        Must not alias @p in.
     * @param int8 Run the layers for which int8Layer() holds through
     *        the u8·s8 engine: the layer quantizes its input
     *        activations to uint8 (one scale per sample row) and runs
     *        the int8 microkernels against its s8-quantized weights
     *        with the fused dequant+bias+ReLU epilogue. Every other
     *        layer, and every layer when false, runs the fp32 packed
     *        engine. An int8 layer approximates the fp32 one (weights
     *        carry ~7 bits) — accuracy-budget-tested, not
     *        bitwise-comparable to fp32 — but each output row stays
     *        bitwise invariant to SimdLevel, tile, batch position and
     *        the other rows of the batch, at either setting.
     */
    void forward(const Tensor& in, Tensor& out, bool int8 = false) const;

    /**
     * forward() with caller-owned ping-pong scratch: bitwise-identical
     * outputs, but heap-allocation-free once the scratch tensors'
     * capacities cover [batch x widest hidden layer] — the first layer
     * reads @p in directly instead of copying it. @p in must not alias
     * @p out or either scratch tensor.
     */
    void forward(const Tensor& in, Tensor& out, Tensor& scratch_a,
                 Tensor& scratch_b) const;

    /**
     * The scratch forward() with a precision choice: @p qscratch
     * stages the int8 layers' quantized activation codes, and stays
     * allocation-free once it holds batch * maxInt8ActivationStride()
     * bytes.
     */
    void forward(const Tensor& in, Tensor& out, Tensor& scratch_a,
                 Tensor& scratch_b, std::vector<std::uint8_t>& qscratch,
                 bool int8) const;

    /** True when layer @p l runs the u8·s8 engine under int8: its
     *  fp32 pack exceeds kInt8MinPackBytes. */
    bool
    int8Layer(std::size_t l) const
    {
        return _packed[l].bytes() > kInt8MinPackBytes;
    }

    /**
     * Builds the u8·s8 packs of the int8 layers, once; copies share
     * them. An int8 forward builds them itself when they are missing,
     * so a caller that serves int8 calls this while setting up, and
     * no request pays for the build (DlrmModel does it when an int8
     * store reaches the model). Thread-safe.
     */
    void prepareInt8() const { int8Packs(); }

    /** Bytes of u8·s8 code storage built so far (0 before the first
     *  prepareInt8() or int8 forward, and for an MLP without int8
     *  layers). Not synchronized with a build in flight: read it
     *  when no first int8 use can race. */
    std::size_t int8PackedBytes() const;

    /**
     * Panel-packed weights of layer @p l, built once at construction
     * and shared read-only by every forward.
     */
    const PackedWeights& packedLayer(std::size_t l) const
    {
        return _packed[l];
    }

    /** fp32 weight matrix of layer @p l ([dims[l+1] x dims[l]]) — the
     *  serialization source for snapshots. */
    const Tensor& layerWeights(std::size_t l) const
    {
        return _weights[l];
    }

    /** Bias vector of layer @p l (dims[l+1] entries). */
    const std::vector<float>& layerBias(std::size_t l) const
    {
        return _biases[l];
    }

    /** Bytes of packed-weight storage across all layers (the one-time
     *  prepack overhead on top of the nn.Linear weights). */
    std::size_t packedBytes() const;

    /** Largest int8 activationStride() across the int8 layers (0 when
     *  there are none): batch * this many bytes of qscratch cover
     *  every int8 layer. */
    std::size_t maxInt8ActivationStride() const;

  private:
    std::vector<std::size_t> _dims;
    std::vector<Tensor> _weights;          //!< per layer [out x in]
    std::vector<std::vector<float>> _biases;
    std::vector<PackedWeights> _packed;    //!< per layer panel pack

    /** The u8·s8 packs, one per layer, empty for the layers that
     *  are not int8Layer(). Built once by prepareInt8() or the first
     *  int8 forward, so a model that never serves int8 never pays for
     *  them. Copies share them (they derive from weights that never
     *  change). */
    struct Int8Packs
    {
        std::once_flag built;
        std::vector<PackedWeightsInt8> layers;
    };
    const std::vector<PackedWeightsInt8>& int8Packs() const;
    std::shared_ptr<Int8Packs> _int8 = std::make_shared<Int8Packs>();
};

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_MLP_HPP
