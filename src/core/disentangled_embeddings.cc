#include "core/disentangled_embeddings.h"

#include "tensor/ops.h"
#include "util/random.h"

namespace dtrec {

DisentangledEmbeddings DisentangledEmbeddings::Create(
    size_t num_users, size_t num_items, size_t total_dim, size_t primary_dim,
    double init_scale, double bias_init, Rng* rng, bool use_rating_bias) {
  DTREC_CHECK(rng != nullptr);
  DTREC_CHECK_GT(primary_dim, 0u);
  DTREC_CHECK_LT(primary_dim, total_dim);
  const size_t aux_dim = total_dim - primary_dim;
  DisentangledEmbeddings emb;
  emb.p_primary =
      Matrix::RandomNormal(num_users, primary_dim, init_scale, rng);
  emb.p_auxiliary =
      Matrix::RandomNormal(num_users, aux_dim, init_scale, rng);
  emb.q_primary =
      Matrix::RandomNormal(num_items, primary_dim, init_scale, rng);
  emb.q_auxiliary =
      Matrix::RandomNormal(num_items, aux_dim, init_scale, rng);
  emb.prop_weights = Matrix::Ones(1, total_dim);
  emb.prop_bias = Matrix(1, 1, bias_init);
  if (use_rating_bias) {
    emb.user_bias = Matrix(num_users, 1);
    emb.item_bias = Matrix(num_items, 1);
  }
  return emb;
}

double DisentangledEmbeddings::RatingLogit(size_t user, size_t item) const {
  double logit = RowDot(p_primary, user, q_primary, item);
  if (has_rating_bias()) {
    logit += user_bias(user, 0) + item_bias(item, 0);
  }
  return logit;
}

double DisentangledEmbeddings::PropensityLogit(size_t user,
                                               size_t item) const {
  const size_t a = primary_dim();
  double logit = prop_bias(0, 0);
  const double* pu = p_primary.row(user);
  const double* qi = q_primary.row(item);
  for (size_t k = 0; k < a; ++k) logit += prop_weights(0, k) * pu[k] * qi[k];
  const double* pu2 = p_auxiliary.row(user);
  const double* qi2 = q_auxiliary.row(item);
  for (size_t k = 0; k < auxiliary_dim(); ++k) {
    logit += prop_weights(0, a + k) * pu2[k] * qi2[k];
  }
  return logit;
}

std::vector<Matrix*> DisentangledEmbeddings::Params() {
  std::vector<Matrix*> params{&p_primary, &p_auxiliary, &q_primary,
                              &q_auxiliary, &prop_weights, &prop_bias};
  if (has_rating_bias()) {
    params.push_back(&user_bias);
    params.push_back(&item_bias);
  }
  return params;
}

std::vector<const Matrix*> DisentangledEmbeddings::Params() const {
  std::vector<const Matrix*> params{&p_primary, &p_auxiliary, &q_primary,
                                    &q_auxiliary, &prop_weights,
                                    &prop_bias};
  if (has_rating_bias()) {
    params.push_back(&user_bias);
    params.push_back(&item_bias);
  }
  return params;
}

size_t DisentangledEmbeddings::NumParameters() const {
  return p_primary.size() + p_auxiliary.size() + q_primary.size() +
         q_auxiliary.size() + prop_weights.size() + prop_bias.size() +
         user_bias.size() + item_bias.size();
}

double DisentangledEmbeddings::DisentangleLossValue() const {
  return MatMulTransA(p_primary, p_auxiliary).FrobeniusNormSquared() +
         MatMulTransA(q_primary, q_auxiliary).FrobeniusNormSquared();
}

double DisentangledEmbeddings::NormalizedDisentangleValue() const {
  auto normalized = [](const Matrix& a, const Matrix& b) {
    const double cross = MatMulTransA(a, b).FrobeniusNormSquared();
    const double scale =
        a.FrobeniusNormSquared() * b.FrobeniusNormSquared();
    return scale > 0.0 ? cross / scale : 0.0;
  };
  return normalized(p_primary, p_auxiliary) +
         normalized(q_primary, q_auxiliary);
}

DisentangledGraph BuildDisentangledGraph(ag::Tape* tape,
                                         const DisentangledEmbeddings& emb,
                                         const std::vector<size_t>& users,
                                         const std::vector<size_t>& items) {
  DTREC_CHECK(tape != nullptr);
  DisentangledGraph graph;
  graph.p_primary = tape->Leaf(emb.p_primary);
  graph.p_auxiliary = tape->Leaf(emb.p_auxiliary);
  graph.q_primary = tape->Leaf(emb.q_primary);
  graph.q_auxiliary = tape->Leaf(emb.q_auxiliary);
  graph.prop_weights = tape->Leaf(emb.prop_weights);
  graph.prop_bias = tape->Leaf(emb.prop_bias);

  graph.pu_primary = ag::GatherRows(graph.p_primary, users);
  graph.pu_auxiliary = ag::GatherRows(graph.p_auxiliary, users);
  graph.qi_primary = ag::GatherRows(graph.q_primary, items);
  graph.qi_auxiliary = ag::GatherRows(graph.q_auxiliary, items);

  // Rating head: primary block only (x_{u,i} → r).
  graph.rating_logits = ag::RowwiseDot(graph.pu_primary, graph.qi_primary);
  if (emb.has_rating_bias()) {
    graph.user_bias = tape->Leaf(emb.user_bias);
    graph.item_bias = tape->Leaf(emb.item_bias);
    graph.rating_logits =
        ag::Add(graph.rating_logits,
                ag::Add(ag::GatherRows(graph.user_bias, users),
                        ag::GatherRows(graph.item_bias, items)));
  }

  return graph;
}

void AddGlmPropensityHead(DisentangledGraph* graph) {
  DTREC_CHECK(graph != nullptr);
  // Propensity head: full embedding [x, z] → o, per-dimension weighted.
  ag::Var pu_full = ag::HConcat(graph->pu_primary, graph->pu_auxiliary);
  ag::Var qi_full = ag::HConcat(graph->qi_primary, graph->qi_auxiliary);
  ag::Var interactions = ag::Mul(pu_full, qi_full);  // B×K
  graph->prop_logits = ag::AddRowBroadcast(
      ag::MatMul(interactions, ag::Transpose(graph->prop_weights)),
      graph->prop_bias);
}

void AppendDisentangledLeaves(const DisentangledGraph& graph,
                              std::vector<ag::Var>* leaves) {
  DTREC_CHECK(leaves != nullptr);
  for (ag::Var leaf : {graph.p_primary, graph.p_auxiliary, graph.q_primary,
                       graph.q_auxiliary, graph.prop_weights,
                       graph.prop_bias}) {
    leaves->push_back(leaf);
  }
  if (graph.user_bias.valid()) {
    leaves->push_back(graph.user_bias);
    leaves->push_back(graph.item_bias);
  }
}

}  // namespace dtrec
