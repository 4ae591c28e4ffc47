#include "experiments/config.h"

#include <cstdlib>

#include "util/string_util.h"

namespace dtrec {

const char* DatasetKindName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kCoat:
      return "Coat";
    case DatasetKind::kYahoo:
      return "Yahoo";
    case DatasetKind::kKuaiRec:
      return "KuaiRec";
  }
  return "?";
}

DatasetProfile DefaultProfile(DatasetKind kind) {
  DatasetProfile profile;
  TrainConfig& tc = profile.train;
  switch (kind) {
    case DatasetKind::kCoat:
      tc.epochs = 20;
      tc.batch_size = 1024;
      tc.learning_rate = 0.05;
      tc.embedding_dim = 16;
      tc.max_steps_per_epoch = 70;
      profile.ranking_k = 5;
      break;
    case DatasetKind::kYahoo:
      tc.epochs = 15;
      tc.batch_size = 2048;
      tc.learning_rate = 0.05;
      tc.embedding_dim = 8;
      tc.max_steps_per_epoch = 150;
      profile.ranking_k = 5;
      profile.dataset_scale = 0.05;
      break;
    case DatasetKind::kKuaiRec:
      tc.epochs = 15;
      tc.batch_size = 2048;
      tc.learning_rate = 0.05;
      tc.embedding_dim = 8;
      tc.max_steps_per_epoch = 150;
      profile.ranking_k = 50;
      profile.dataset_scale = 0.08;
      break;
  }
  return profile;
}

TrainConfig TuneForMethod(const std::string& method, TrainConfig base) {
  if (StartsWith(method, "DT-")) {
    base.alpha = 1.0;
    base.beta = 1e-2;   // weights are for the size-normalized F-norms
    base.gamma = 2e-3;  // calibrated so large logits (high-eta regimes)
                        // are not over-penalized
  } else if (StartsWith(method, "ESCM2")) {
    base.lambda1 = 0.5;
    base.lambda2 = 0.5;
  } else if (method == "CVIB") {
    base.alpha = 0.1;
    base.lambda2 = 0.01;
  } else if (method == "DIB") {
    base.alpha = 0.5;
    base.beta = 1e-2;  // size-normalized orthogonality term
  } else if (method == "IPS-V2" || method == "DR-V2") {
    base.alpha = 1.0;
    base.lambda2 = 0.5;
  } else if (method == "DR-MSE") {
    base.lambda1 = 0.5;
  }
  return base;
}

Status ApplyOverride(const std::string& key, const std::string& value,
                     DatasetProfile* profile) {
  if (profile == nullptr) {
    return Status::InvalidArgument("profile must not be null");
  }
  const bool real = key == "lr" || key == "scale" ||
                    key == "positive_threshold";
  DTREC_RETURN_IF_ERROR(
      CheckArg(key, value, real ? ArgKind::kReal : ArgKind::kCount));
  const double num = std::strtod(value.c_str(), nullptr);
  if (key == "epochs") {
    profile->train.epochs = static_cast<size_t>(num);
  } else if (key == "batch_size") {
    profile->train.batch_size = static_cast<size_t>(num);
  } else if (key == "lr") {
    profile->train.learning_rate = num;
  } else if (key == "dim") {
    profile->train.embedding_dim = static_cast<size_t>(num);
  } else if (key == "scale") {
    profile->dataset_scale = num;
  } else if (key == "k") {
    profile->ranking_k = static_cast<size_t>(num);
  } else if (key == "positive_threshold") {
    profile->positive_threshold = num;
  } else if (key == "steps") {
    profile->train.max_steps_per_epoch = static_cast<size_t>(num);
  } else {
    return Status::InvalidArgument("unknown override key: " + key);
  }
  return Status::OK();
}

}  // namespace dtrec
