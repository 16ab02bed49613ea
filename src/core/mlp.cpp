#include "core/mlp.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "core/gemm.hpp"

namespace dlrmopt::core
{

Mlp::Mlp(const std::vector<std::size_t>& dims, std::uint64_t seed)
    : _dims(dims)
{
    if (dims.size() < 2)
        throw std::invalid_argument("Mlp needs at least input+one layer");
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        Tensor w(dims[l + 1], dims[l]);
        // Scale roughly like Xavier init so activations stay bounded.
        float scale = 1.0f / static_cast<float>(std::max<std::size_t>(
                                 1, dims[l] / 8 + 1));
        w.randomize(mix64(seed + l), scale);
        _weights.push_back(std::move(w));
        std::vector<float> b(dims[l + 1]);
        for (std::size_t i = 0; i < b.size(); ++i) {
            b[i] = static_cast<float>(
                       toUnitInterval(mix64(seed ^ (l * 131 + i))) - 0.5) *
                   0.02f;
        }
        _biases.push_back(std::move(b));
        _packed.emplace_back(_weights.back().data(), dims[l],
                             dims[l + 1]);
        _packedInt8.emplace_back(_weights.back().data(), dims[l],
                                 dims[l + 1]);
    }
}

Mlp::Mlp(const std::vector<std::size_t>& dims,
         std::vector<Tensor> weights,
         std::vector<std::vector<float>> biases)
    : _dims(dims), _weights(std::move(weights)),
      _biases(std::move(biases))
{
    if (dims.size() < 2)
        throw std::invalid_argument("Mlp needs at least input+one layer");
    const std::size_t layers = dims.size() - 1;
    if (_weights.size() != layers || _biases.size() != layers) {
        throw std::invalid_argument(
            "Mlp: adopted parameter count does not match the size "
            "list");
    }
    for (std::size_t l = 0; l < layers; ++l) {
        if (_weights[l].rows() != dims[l + 1] ||
            _weights[l].cols() != dims[l] ||
            _biases[l].size() != dims[l + 1]) {
            throw std::invalid_argument(
                "Mlp: adopted layer " + std::to_string(l) +
                " has the wrong shape");
        }
        _packed.emplace_back(_weights[l].data(), dims[l], dims[l + 1]);
        _packedInt8.emplace_back(_weights[l].data(), dims[l],
                                 dims[l + 1]);
    }
}

std::size_t
Mlp::packedBytes() const
{
    std::size_t n = 0;
    for (const auto& p : _packed)
        n += p.bytes();
    return n;
}

std::size_t
Mlp::maxPaddedK() const
{
    std::size_t n = 0;
    for (const auto& p : _packedInt8)
        n = std::max(n, p.paddedK());
    return n;
}

double
Mlp::flopsPerSample() const
{
    double f = 0.0;
    for (std::size_t l = 0; l + 1 < _dims.size(); ++l)
        f += 2.0 * static_cast<double>(_dims[l]) *
             static_cast<double>(_dims[l + 1]);
    return f;
}

void
Mlp::forward(const Tensor& in, Tensor& out) const
{
    assert(in.cols() == inputDim());
    const std::size_t batch = in.rows();

    Tensor scratch_a = in;  // current activations
    Tensor scratch_b;
    for (std::size_t l = 0; l < _weights.size(); ++l) {
        const bool last = (l + 1 == _weights.size());
        const std::size_t od = _dims[l + 1];
        Tensor& dst = last ? out : scratch_b;
        dst.reshape(batch, od);
        denseLayerForwardPacked(scratch_a.data(), batch, _packed[l],
                                _biases[l].data(), dst.data(), !last);
        if (!last)
            std::swap(scratch_a, scratch_b);
    }
}

void
Mlp::forward(const Tensor& in, Tensor& out, Tensor& scratch_a,
             Tensor& scratch_b) const
{
    assert(in.cols() == inputDim());
    const std::size_t batch = in.rows();

    const float *src = in.data();
    for (std::size_t l = 0; l < _weights.size(); ++l) {
        const bool last = (l + 1 == _weights.size());
        const std::size_t od = _dims[l + 1];
        Tensor& dst = last ? out : (l % 2 == 0 ? scratch_a : scratch_b);
        dst.reshape(batch, od);
        denseLayerForwardPacked(src, batch, _packed[l],
                                _biases[l].data(), dst.data(), !last);
        src = dst.data();
    }
}

void
Mlp::forwardInt8(const Tensor& in, Tensor& out) const
{
    Tensor scratch_a, scratch_b;
    std::vector<std::uint8_t> qscratch;
    forwardInt8(in, out, scratch_a, scratch_b, qscratch);
}

void
Mlp::forwardInt8(const Tensor& in, Tensor& out, Tensor& scratch_a,
                 Tensor& scratch_b,
                 std::vector<std::uint8_t>& qscratch) const
{
    assert(in.cols() == inputDim());
    const std::size_t batch = in.rows();

    const float *src = in.data();
    for (std::size_t l = 0; l < _weights.size(); ++l) {
        const bool last = (l + 1 == _weights.size());
        const std::size_t od = _dims[l + 1];
        Tensor& dst = last ? out : (l % 2 == 0 ? scratch_a : scratch_b);
        dst.reshape(batch, od);
        const PackedWeightsInt8& w = _packedInt8[l];
        qscratch.resize(batch * w.paddedK());
        const QuantParams qp = quantizeActivationsInt8(
            src, batch, w.inDim(), w.paddedK(), qscratch.data());
        denseLayerForwardPackedInt8(qscratch.data(), batch, w,
                                    _biases[l].data(), dst.data(),
                                    !last, qp.scale, qp.bias);
        src = dst.data();
    }
}

} // namespace dlrmopt::core
