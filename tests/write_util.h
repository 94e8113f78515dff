// Test helpers over TimeUnionDB::Write, the one write call.
//
// Write returns OK when a row fails (the row is counted in `rejected` and
// its status kept in `first_error`), so a check that reads only the
// returned Status would miss row failures. Both helpers check the call
// and the rows.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/timeunion_db.h"

namespace tu::core {

/// Writes `batch` and returns the first failure of the call or of any row:
/// OK only when every row applied. `result` (optional) receives the row
/// outcomes: resolved series refs and group refs + member slots of the
/// batch's labeled rows.
inline Status WriteRows(TimeUnionDB* db, const WriteBatch& batch,
                        WriteResult* result = nullptr) {
  WriteResult local;
  if (result == nullptr) result = &local;
  TU_RETURN_IF_ERROR(db->Write(batch, result));
  if (!result->ok()) return result->first_error;
  if (result->rejected != 0 || result->appended != batch.NumRows()) {
    return Status::Corruption(
        "Write applied " + std::to_string(result->appended) + " of " +
        std::to_string(batch.NumRows()) + " rows without an error");
  }
  return Status::OK();
}

/// WriteRows as a gtest assertion: ASSERT_TRUE(WriteAll(db, batch)).
inline ::testing::AssertionResult WriteAll(TimeUnionDB* db,
                                           const WriteBatch& batch,
                                           WriteResult* result = nullptr) {
  const Status s = WriteRows(db, batch, result);
  if (s.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << s.ToString();
}

/// Writes sample i of series metric=cpu (value i at ts i * step_ms) as its
/// own Write, the way a per-sample client does: sample 0 by labels
/// (resolving *ref), later ones by *ref. For tests whose faults, crash
/// points or acks are placed per sample.
inline Status WriteCpuSample(TimeUnionDB* db, int i, int64_t step_ms,
                             uint64_t* ref) {
  WriteBatch batch;
  if (i == 0) {
    batch.AddSample(index::Labels{{"metric", "cpu"}}, 0, 0.0);
  } else {
    batch.AddSample(*ref, i * step_ms, 1.0 * i);
  }
  WriteResult result;
  TU_RETURN_IF_ERROR(WriteRows(db, batch, &result));
  if (i == 0) *ref = result.resolved_refs[0];
  return Status::OK();
}

}  // namespace tu::core
