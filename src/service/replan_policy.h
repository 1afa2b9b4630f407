#ifndef SQPR_SERVICE_REPLAN_POLICY_H_
#define SQPR_SERVICE_REPLAN_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "model/ids.h"

namespace sqpr {

namespace obs {
class AuditJournal;
}  // namespace obs

class VirtualClock;

/// Bounds on the §IV-B/§IV-C adaptive re-planning work the service is
/// willing to do per consumed event. The paper re-plans by removing and
/// re-admitting affected queries; each re-admission is a full reduced
/// MILP solve, so an unbounded drift report (or a failed host carrying
/// many queries) could stall the event loop. The policy batches all
/// pending candidates into *rounds* of at most `max_queries_per_round`
/// solves; one round commits per event, and the remainder stays queued
/// for later events and ticks.
struct ReplanPolicyOptions {
  int max_queries_per_round = 8;
  /// Ignored: rounds always solve in order on the calling thread. Kept
  /// only because the benchmark replay still sets it; the next
  /// benchmark change removes it together with its --workers flag.
  int workers = 0;
};

/// Deduplicating FIFO of re-planning candidates. Candidates accumulate
/// from monitor drift reports, host-failure fallout and (optionally)
/// rejected-query retries after topology changes; enqueueing an already
/// pending query is a no-op, so a query implicated by several conditions
/// in one period is re-planned once (the §IV-B round semantics).
///
/// Round composition is pinned at *enqueue* time: candidates are cut
/// into groups of at most max_queries_per_round as they arrive (a
/// candidate joins the newest group unless it is full), and a
/// later Discard shrinks its group without re-packing the others. A
/// departure then removes exactly one query from one round, whether
/// that round is still queued here or already popped as the service's
/// pending round, and every later round keeps its composition.
class ReplanScheduler {
 public:
  explicit ReplanScheduler(ReplanPolicyOptions options)
      : options_(options) {}

  /// Adds a candidate; returns false when it was already pending.
  bool Enqueue(StreamId query);

  /// Drops a pending candidate (e.g. the query departed while waiting).
  void Discard(StreamId query);

  /// Pops the oldest group (up to max_queries_per_round candidates, in
  /// enqueue order).
  std::vector<StreamId> NextRound();

  bool HasPending() const { return !pending_.empty(); }
  size_t pending() const { return pending_.size(); }
  const ReplanPolicyOptions& options() const { return options_; }

  /// Pending candidates in FIFO order (group by group) — the backlog
  /// the audit journal's close.pending record carries.
  std::vector<StreamId> PendingQueries() const;

  /// Checkpoint support (src/service/checkpoint.h). Round composition is
  /// pinned at enqueue time, so a faithful restore must preserve the
  /// *group boundaries*, not just the flat candidate order — otherwise a
  /// restored service would re-cut the backlog into different rounds
  /// than the uninterrupted run. Empty groups (fully Discarded) are
  /// dropped on export; they are unobservable, NextRound skips them.
  std::vector<std::vector<StreamId>> ExportGroups() const;

  /// Replaces the backlog with `groups`, rebuilding the pending set.
  /// No audit records are emitted: the enqueues were already audited in
  /// the run that produced the checkpoint.
  void ImportGroups(const std::vector<std::vector<StreamId>>& groups);

  /// Attaches a decision audit journal (null detaches). replan.enqueue
  /// records are canonical; replan.discard records are marked
  /// speculative, as the service's own discards of pending-round
  /// queries are. `clock` supplies the virtual time.
  void set_audit(obs::AuditJournal* audit, const VirtualClock* clock) {
    audit_ = audit;
    audit_clock_ = clock;
  }

 private:
  void Audit(const char* kind, StreamId query, bool speculative) const;

  ReplanPolicyOptions options_;
  obs::AuditJournal* audit_ = nullptr;
  const VirtualClock* audit_clock_ = nullptr;
  /// Groups in FIFO order; each inner deque is one future round, in
  /// enqueue order. Discard may leave a group empty — NextRound skips
  /// empty groups rather than merging neighbours.
  std::deque<std::deque<StreamId>> groups_;
  std::set<StreamId> pending_;
};

}  // namespace sqpr

#endif  // SQPR_SERVICE_REPLAN_POLICY_H_
