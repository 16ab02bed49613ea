/**
 * @file
 * DLRM dot-product feature interaction (Fig. 2 of the paper).
 *
 * The interaction stage takes the bottom-MLP output plus one pooled
 * embedding vector per table (T + 1 vectors of the embedding
 * dimension) and computes all pairwise dot products; the result is
 * concatenated with the bottom-MLP output to form the top-MLP input.
 */

#ifndef DLRMOPT_CORE_INTERACTION_HPP
#define DLRMOPT_CORE_INTERACTION_HPP

#include <cstddef>
#include <vector>

namespace dlrmopt::core
{

/**
 * Output feature width of the interaction stage.
 *
 * @param num_tables Number of embedding tables (T).
 * @param dim Embedding dimension (also bottom-MLP output width).
 * @return dim + T*(T+1)/2 (pairwise dots among T+1 vectors, plus the
 *         passthrough bottom-MLP features).
 */
constexpr std::size_t
interactionOutputDim(std::size_t num_tables, std::size_t dim)
{
    return dim + num_tables * (num_tables + 1) / 2;
}

/**
 * Computes the dot interaction for a batch.
 *
 * @param bottom Bottom-MLP output, [batch x dim].
 * @param emb Per-table pooled embeddings; emb[t] points to a
 *            [batch x dim] buffer for table t.
 * @param num_tables Number of embedding tables.
 * @param batch Batch size.
 * @param dim Embedding dimension.
 * @param out Output, [batch x interactionOutputDim(num_tables, dim)].
 */
void dotInteraction(const float *bottom,
                    const std::vector<const float *>& emb,
                    std::size_t num_tables, std::size_t batch,
                    std::size_t dim, float *out);

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_INTERACTION_HPP
