#include "features/encoder.h"

namespace wtp::features {

// The entries go in schema group order (schema.h), which is ascending.
EncodedTransaction TransactionEncoder::encode(const log::WebTransaction& txn) const {
  EncodedTransaction encoded;
  const FeatureSchema& schema = *schema_;

  encoded.push_back(schema.http_action_column(txn.action), 1.0);
  encoded.push_back(schema.uri_scheme_column(txn.scheme), 1.0);
  if (txn.private_destination) {
    encoded.push_back(schema.private_flag_column(), 1.0);
  }
  const double risk = log::reputation_risk(txn.reputation);
  if (risk != 0.0) {
    encoded.push_back(schema.reputation_risk_column(), risk);
  }
  if (log::reputation_verified(txn.reputation)) {
    encoded.push_back(schema.reputation_verified_column(), 1.0);
  }
  if (const auto column = schema.category_column(txn.category)) {
    encoded.push_back(*column, 1.0);
  }
  const auto media = log::split_media_type(txn.media_type);
  if (const auto column = schema.super_type_column(media.super_type)) {
    encoded.push_back(*column, 1.0);
  }
  if (const auto column = schema.sub_type_column(media.sub_type)) {
    encoded.push_back(*column, 1.0);
  }
  if (const auto column = schema.application_type_column(txn.application_type)) {
    encoded.push_back(*column, 1.0);
  }
  return encoded;
}

}  // namespace wtp::features
