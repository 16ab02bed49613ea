#include "core/mlp.hpp"

#include <algorithm>
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
Mlp::maxInt8ActivationStride() const
{
    std::size_t n = 0;
    for (std::size_t l = 0; l < _packed.size(); ++l) {
        if (int8Layer(l))
            n = std::max(n,
                         PackedWeightsInt8::activationStrideFor(_dims[l]));
    }
    return n;
}

std::size_t
Mlp::int8PackedBytes() const
{
    std::size_t n = 0;
    for (const auto& p : _int8->layers)
        n += p.bytes();
    return n;
}

const std::vector<PackedWeightsInt8>&
Mlp::int8Packs() const
{
    std::call_once(_int8->built, [this] {
        _int8->layers.resize(_weights.size());
        for (std::size_t l = 0; l < _weights.size(); ++l) {
            if (int8Layer(l)) {
                _int8->layers[l] = PackedWeightsInt8(
                    _weights[l].data(), _dims[l], _dims[l + 1]);
            }
        }
    });
    return _int8->layers;
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
Mlp::forward(const Tensor& in, Tensor& out, bool int8) const
{
    Tensor scratch_a, scratch_b;
    std::vector<std::uint8_t> qscratch;
    forward(in, out, scratch_a, scratch_b, qscratch, int8);
}

void
Mlp::forward(const Tensor& in, Tensor& out, Tensor& scratch_a,
             Tensor& scratch_b) const
{
    std::vector<std::uint8_t> unused;
    forward(in, out, scratch_a, scratch_b, unused, false);
}

void
Mlp::forward(const Tensor& in, Tensor& out, Tensor& scratch_a,
             Tensor& scratch_b, std::vector<std::uint8_t>& qscratch,
             bool int8) const
{
    assert(in.cols() == inputDim());
    const std::size_t batch = in.rows();

    const std::vector<PackedWeightsInt8> *packs =
        int8 ? &int8Packs() : nullptr;
    const float *src = in.data();
    for (std::size_t l = 0; l < _weights.size(); ++l) {
        const bool last = (l + 1 == _weights.size());
        const std::size_t od = _dims[l + 1];
        Tensor& dst = last ? out : (l % 2 == 0 ? scratch_a : scratch_b);
        dst.reshape(batch, od);
        if (packs != nullptr && int8Layer(l)) {
            denseLayerForwardInt8(src, batch, (*packs)[l],
                                  _biases[l].data(), dst.data(), !last,
                                  qscratch);
        } else {
            denseLayerForwardPacked(src, batch, _packed[l],
                                    _biases[l].data(), dst.data(), !last);
        }
        src = dst.data();
    }
}

} // namespace dlrmopt::core
