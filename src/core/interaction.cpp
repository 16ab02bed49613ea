#include "core/interaction.hpp"

namespace dlrmopt::core
{

namespace
{

/** Dot product of two dim-length vectors. */
inline float
dot(const float *a, const float *b, std::size_t dim)
{
    float acc = 0.0f;
    for (std::size_t d = 0; d < dim; ++d)
        acc += a[d] * b[d];
    return acc;
}

} // namespace

void
dotInteraction(const float *bottom, const std::vector<const float *>& emb,
               std::size_t num_tables, std::size_t batch, std::size_t dim,
               float *out)
{
    const std::size_t out_dim = interactionOutputDim(num_tables, dim);

    for (std::size_t b = 0; b < batch; ++b) {
        float *o = out + b * out_dim;
        const float *bot = bottom + b * dim;

        // Passthrough of the dense features.
        for (std::size_t d = 0; d < dim; ++d)
            o[d] = bot[d];

        // Lower-triangular pairwise dots among the T+1 vectors
        // {bottom, emb[0], ..., emb[T-1]}, excluding self-pairs.
        std::size_t k = dim;
        for (std::size_t i = 0; i < num_tables; ++i) {
            const float *vi = emb[i] + b * dim;
            o[k++] = dot(vi, bot, dim);
            for (std::size_t j = 0; j < i; ++j) {
                const float *vj = emb[j] + b * dim;
                o[k++] = dot(vi, vj, dim);
            }
        }
    }
}

} // namespace dlrmopt::core
