// Unit tests for the predictive reordering pass: hand-built histories
// where the feasible reassignments (and the infeasible ones) are known
// exactly.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/predict.h"

namespace planet {
namespace {

RecordedRead Read(Key key, Version version, SimTime at) {
  RecordedRead r;
  r.key = key;
  r.version = version;
  r.at = at;
  return r;
}

RecordedWrite PhysicalWrite(Key key, Version read_version, Value value) {
  RecordedWrite w;
  w.key = key;
  w.read_version = read_version;
  w.new_value = value;
  return w;
}

RecordedTxn Txn(TxnId id, NodeId client, IsolationLevel iso, SimTime begin,
                SimTime decide) {
  RecordedTxn t;
  t.id = id;
  t.client_node = client;
  t.client_dc = 0;
  t.isolation = iso;
  t.outcome = TxnOutcome::kCommitted;
  t.begin = begin;
  t.decide = decide;
  return t;
}

/// Latent write skew on (k1, k2): the writer commits k2's v2 before the
/// reader reads it, so the observed run serializes — but delaying the
/// writer past `read_at` closes the rw/rw cycle.
void AddLatentPair(History* h, Key k1, Key k2, TxnId reader_id,
                   TxnId writer_id, NodeId reader_client, NodeId writer_client,
                   SimTime read_at, SimTime writer_decide) {
  h->AddSeed(k1, 1, 10);
  h->AddSeed(k2, 1, 10);
  RecordedTxn writer = Txn(writer_id, writer_client,
                           IsolationLevel::kReadCommitted, 50, writer_decide);
  writer.reads.push_back(Read(k1, 1, 100));
  writer.writes.push_back(PhysicalWrite(k2, 1, 5));
  h->Add(writer);
  RecordedTxn reader = Txn(reader_id, reader_client,
                           IsolationLevel::kReadCommitted, 60, read_at + 100);
  reader.reads.push_back(Read(k2, 2, read_at));
  reader.writes.push_back(PhysicalWrite(k1, 1, 5));
  h->Add(reader);
}

TEST(Predict, LatentWriteSkewYieldsOnePrediction) {
  History h;
  AddLatentPair(&h, 1, 2, /*reader=*/1, /*writer=*/2, /*clients=*/10, 11,
                /*read_at=*/300, /*writer_decide=*/200);
  std::vector<PredictedViolation> p = PredictReorderings(h);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].reader, 1u);
  EXPECT_EQ(p[0].writer, 2u);
  EXPECT_EQ(p[0].key, 2u);
  EXPECT_EQ(p[0].observed, 2u);
  EXPECT_EQ(p[0].predicted, 1u);
  EXPECT_EQ(p[0].gap, 100);  // |300 - 200|
  ASSERT_EQ(p[0].directives.size(), 1u);
  EXPECT_EQ(p[0].directives[0].txn, 2u);
  // Delay spans read_at (300) minus writer begin (50) plus the margin.
  EXPECT_EQ(p[0].directives[0].delay, 250 + kPredictionDelayMargin);
  EXPECT_FALSE(p[0].cycle.empty());
  EXPECT_EQ(p[0].cycle.back().kind, 'a');
  EXPECT_EQ(p[0].cycle.back().to, 2u);
}

TEST(Predict, SerializableReaderNeverReassigned) {
  History h;
  AddLatentPair(&h, 1, 2, 1, 2, 10, 11, 300, 200);
  // Same schedule, but both clients asked for serializable: the stack
  // validates those reads, so there is no visibility slack to exploit.
  History ser;
  for (const SeededKey& s : h.seeds()) ser.AddSeed(s.key, s.version, s.value);
  for (RecordedTxn t : h.txns()) {
    t.isolation = IsolationLevel::kSerializable;
    ser.Add(std::move(t));
  }
  EXPECT_TRUE(PredictReorderings(ser).empty());
}

TEST(Predict, SameSessionWriterSkipped) {
  History h;
  // Reader and writer share client_node 10: session order forbids delaying
  // the writer past its own client's later read.
  AddLatentPair(&h, 1, 2, 1, 2, /*reader_client=*/10, /*writer_client=*/10,
                300, 200);
  EXPECT_TRUE(PredictReorderings(h).empty());
}

TEST(Predict, UnknownPredecessorVersionSkipped) {
  History h;
  h.AddSeed(1, 1, 10);
  // Key 2 is NOT seeded and v1 was never installed by a committed txn, so
  // a read of v2 has no realizable predecessor (chain density constraint).
  RecordedTxn writer = Txn(2, 11, IsolationLevel::kReadCommitted, 50, 200);
  writer.reads.push_back(Read(1, 1, 100));
  writer.writes.push_back(PhysicalWrite(2, 1, 5));  // installs v2
  h.Add(writer);
  RecordedTxn reader = Txn(1, 10, IsolationLevel::kReadCommitted, 60, 400);
  reader.reads.push_back(Read(2, 2, 300));
  reader.writes.push_back(PhysicalWrite(1, 1, 5));
  h.Add(reader);
  EXPECT_TRUE(PredictReorderings(h).empty());
}

TEST(Predict, ReadWithoutTimestampSkipped) {
  History h;
  AddLatentPair(&h, 1, 2, 1, 2, 10, 11, 300, 200);
  // Strip the ordering info (pre-mode histories record at=0): without it
  // no delay can be computed, so the candidate must be dropped.
  History stripped;
  for (const SeededKey& s : h.seeds()) {
    stripped.AddSeed(s.key, s.version, s.value);
  }
  for (RecordedTxn t : h.txns()) {
    for (RecordedRead& r : t.reads) r.at = 0;
    stripped.Add(std::move(t));
  }
  EXPECT_TRUE(PredictReorderings(stripped).empty());
}

TEST(Predict, RankedByGapAndCapped) {
  History h;
  // Three independent latent pairs with distinct gaps; tightest gap first.
  AddLatentPair(&h, 1, 2, 1, 2, 10, 11, /*read_at=*/300,
                /*writer_decide=*/200);  // gap 100
  AddLatentPair(&h, 3, 4, 3, 4, 12, 13, 300, 290);  // gap 10
  AddLatentPair(&h, 5, 6, 5, 6, 14, 15, 300, 250);  // gap 50
  std::vector<PredictedViolation> all = PredictReorderings(h);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].reader, 3u);
  EXPECT_EQ(all[1].reader, 5u);
  EXPECT_EQ(all[2].reader, 1u);

  PredictOptions capped;
  capped.max_predictions = 2;
  std::vector<PredictedViolation> top = PredictReorderings(h, capped);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].reader, 3u);
  EXPECT_EQ(top[1].reader, 5u);
}

TEST(Predict, AbortedWritersIgnored) {
  History h;
  h.AddSeed(1, 1, 10);
  h.AddSeed(2, 1, 10);
  RecordedTxn writer = Txn(2, 11, IsolationLevel::kReadCommitted, 50, 200);
  writer.outcome = TxnOutcome::kAborted;
  writer.writes.push_back(PhysicalWrite(2, 1, 5));
  h.Add(writer);
  RecordedTxn reader = Txn(1, 10, IsolationLevel::kReadCommitted, 60, 400);
  reader.reads.push_back(Read(2, 2, 300));
  reader.writes.push_back(PhysicalWrite(1, 1, 5));
  h.Add(reader);
  // The only writer of v2 aborted: nothing to delay, nothing to predict.
  EXPECT_TRUE(PredictReorderings(h).empty());
}

}  // namespace
}  // namespace planet
