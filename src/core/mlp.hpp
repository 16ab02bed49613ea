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
     * has dims[l+1] entries. Both packed-weight engines are rebuilt
     * from the adopted fp32 weights, so forwards through a loaded MLP
     * are bitwise-identical to the saved one's.
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
     * Runs the MLP on a batch.
     *
     * @param in Input activations [batch x inputDim()].
     * @param out Output activations; reshaped to [batch x outputDim()].
     */
    void forward(const Tensor& in, Tensor& out) const;

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
     * forward() through the u8·s8 packed engine: each layer quantizes
     * its input activations to uint8 (per-tensor, qmax 127) and runs
     * the int8 microkernels against the layer's s8-quantized weights
     * with the fused dequant+bias+ReLU epilogue. An approximation of
     * the fp32 forward (weights carry ~7 bits, activations re-quantize
     * per layer) — accuracy-budget-tested, not bitwise-comparable to
     * fp32; but bitwise deterministic and SimdLevel/tile/batch-position
     * invariant in its own right.
     */
    void forwardInt8(const Tensor& in, Tensor& out) const;

    /**
     * forwardInt8() with caller-owned scratch: @p qscratch stages each
     * layer's quantized activation codes. Heap-allocation-free once
     * the scratch capacities have warmed up.
     */
    void forwardInt8(const Tensor& in, Tensor& out, Tensor& scratch_a,
                     Tensor& scratch_b,
                     std::vector<std::uint8_t>& qscratch) const;

    /**
     * Panel-packed weights of layer @p l, built once at construction
     * and shared read-only by every forward (both overloads run
     * through the packed microkernel engine).
     */
    const PackedWeights& packedLayer(std::size_t l) const
    {
        return _packed[l];
    }

    /** Int8-quantized panel pack of layer @p l (the forwardInt8 path),
     *  also built once at construction. */
    const PackedWeightsInt8& packedInt8Layer(std::size_t l) const
    {
        return _packedInt8[l];
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

    /** Largest paddedK across layers (sizing for int8 activation
     *  staging buffers: batch * maxPaddedK bytes cover every layer). */
    std::size_t maxPaddedK() const;

  private:
    std::vector<std::size_t> _dims;
    std::vector<Tensor> _weights;          //!< per layer [out x in]
    std::vector<std::vector<float>> _biases;
    std::vector<PackedWeights> _packed;    //!< per layer panel pack
    std::vector<PackedWeightsInt8> _packedInt8; //!< u8·s8 path pack
};

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_MLP_HPP
