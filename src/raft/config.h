// Cluster configurations, reconfiguration plans, and quorum specifications.
//
// A node's *effective configuration* (ConfigState) is derived from the most
// recent configuration entry in its log, applied wait-free on append as in
// Raft. During ReCraft's split the election quorum and the commit quorum
// differ (§III-B); QuorumSpec captures every quorum shape used by the
// protocol: majority, fixed-size (the membership change's C_new-q), joint
// over subclusters (split), and Raft's old+new joint consensus (baseline).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/key_range.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace recraft::raft {

inline size_t MajorityOf(size_t n) { return n / 2 + 1; }

/// Fixed quorum of the intermediate configuration C_new-q (§IV-A).
/// Adding n nodes:    Q = N_old + n - Q_old + 1.
/// Removing r nodes:  Q = N_old     - Q_old + 1 (requires r < Q_old).
/// Both are the smallest quorum sizes over the *new* member set whose every
/// quorum overlaps every majority quorum of C_old.
inline size_t AddResizeQuorum(size_t n_old, size_t n_added) {
  return n_old + n_added - MajorityOf(n_old) + 1;
}
inline size_t RemoveResizeQuorum(size_t n_old) {
  return n_old - MajorityOf(n_old) + 1;
}

/// Vote counts for Raft joint consensus commits under C_old,new (§IV-B):
/// best case (shared nodes' votes arrive first) and worst case.
inline size_t JointBestVotes(size_t n_old, size_t n_new) {
  return std::max(MajorityOf(n_old), MajorityOf(n_new));
}
inline size_t JointWorstVotes(size_t n_old, size_t n_new) {
  size_t diff = n_old > n_new ? n_old - n_new : n_new - n_old;
  return diff + std::min(MajorityOf(n_old), MajorityOf(n_new));
}

/// One subcluster in a split or merge plan: its members and key range.
struct SubCluster {
  std::vector<NodeId> members;  // kept sorted
  KeyRange range;
  ClusterUid uid = 0;  // identity the subcluster assumes when independent

  bool Contains(NodeId n) const {
    return std::binary_search(members.begin(), members.end(), n);
  }
  std::string ToString() const;
};

/// C_new of a split: how the parent divides into disjoint subclusters.
struct SplitPlan {
  std::vector<SubCluster> subs;

  /// Index of the subcluster containing `n`, or -1.
  int SubOf(NodeId n) const;
  std::string ToString() const;
};

/// The merge transaction intent (CTX / C_new of a merge).
struct MergePlan {
  TxId tx = 0;
  std::vector<SubCluster> sources;  // the merging clusters, coordinator first
  int coordinator = 0;              // index into sources
  uint32_t new_epoch = 0;           // E_max + 1; fixed at the commit phase
  ClusterUid new_uid = 0;
  KeyRange new_range;               // concatenation of source ranges
  /// Resize-at-merge: if non-empty, only these nodes resume in the merged
  /// cluster. Must contain every member of at least one source (§III-C.2).
  std::vector<NodeId> resume_members;

  int SourceOf(NodeId n) const;
  std::vector<NodeId> AllMembers() const;
  std::vector<NodeId> ResumeMembers() const;  // resume_members or union
  std::string ToString() const;
};

/// Single-cluster membership change request (§IV plus the two Raft
/// baselines).
enum class MemberChangeKind : uint8_t {
  kAddAndResize = 0,    // ReCraft: add n nodes, quorum -> Q_new-q
  kRemoveAndResize,     // ReCraft: remove r < Q_old nodes, quorum -> Q_new-q
  kResizeQuorum,        // ReCraft: reset quorum to majority
  kAddServer,           // Raft AR-RPC: add one node
  kRemoveServer,        // Raft AR-RPC: remove one node
  kJointEnter,          // Raft JC: C_old,new
  kJointLeave,          // Raft JC: C_new
};

const char* MemberChangeKindName(MemberChangeKind k);

struct MemberChange {
  MemberChangeKind kind = MemberChangeKind::kAddAndResize;
  std::vector<NodeId> nodes;  // added/removed; kJointEnter: full new members
  std::string ToString() const;
};

/// A quorum specification: (member-set, needed-count) groups combined with
/// AND (default) or OR. AND: every group needs `need` acks (joint
/// consensus). OR: any single group sufficing is enough — Definition 5's
/// *constituent consensus*, used to commit the split C_new entry with a
/// majority of any one subcluster.
class QuorumSpec {
 public:
  struct Group {
    std::vector<NodeId> members;  // sorted
    size_t need = 0;
  };

  static QuorumSpec Majority(std::vector<NodeId> members);
  static QuorumSpec Fixed(std::vector<NodeId> members, size_t need);
  /// Majority of each subcluster (ReCraft split joint mode, Definition 5's
  /// "joint consensus").
  static QuorumSpec JointSubs(const std::vector<SubCluster>& subs);
  /// Majority of any ONE subcluster (Definition 5's "constituent
  /// consensus").
  static QuorumSpec AnySub(const std::vector<SubCluster>& subs);
  /// Raft joint consensus: majority of old AND majority of new.
  static QuorumSpec JointOldNew(std::vector<NodeId> old_members,
                                std::vector<NodeId> new_members);

  bool Satisfied(const std::set<NodeId>& acks) const;
  bool Contains(NodeId n) const;

  /// Minimum number of distinct nodes that can satisfy this spec (votes
  /// needed in the best case) — used by the Fig. 5 analysis.
  size_t MinSatisfyingVotes() const;

  const std::vector<Group>& groups() const { return groups_; }
  std::string ToString() const;

 private:
  std::vector<Group> groups_;
  bool any_ = false;  // OR-combine groups (constituent consensus)
};

/// How far a node has progressed through a split (§III-B).
enum class ConfigMode : uint8_t {
  kStable = 0,
  kSplitJoint,    // C_joint appended: election quorum joint, commit C_old
  kSplitLeaving,  // split C_new appended: commit quorum C_sub for entries
                  // >= cnew_index, election still joint until C_new commits
};

/// The effective configuration a node derives from its log. Value type so
/// the config tracker can push/pop states as entries append/truncate.
struct ConfigState {
  ConfigMode mode = ConfigMode::kStable;
  std::vector<NodeId> members;  // current replication set (C_old in splits)
  /// 0 = use majority; otherwise the fixed quorum size of C_new-q.
  size_t fixed_quorum = 0;
  KeyRange range;
  ClusterUid uid = 0;

  // Split bookkeeping (modes kSplitJoint / kSplitLeaving).
  SplitPlan split;
  Index joint_index = 0;  // index of the C_joint entry
  Index cnew_index = 0;   // index of the split C_new entry

  // Raft joint consensus baseline (C_old,new committed, awaiting C_new).
  bool vanilla_joint = false;
  std::vector<NodeId> jc_old;

  // A merge transaction committed into this cluster's log and not yet
  // resolved (CTX' appended, outcome pending).
  std::optional<MergePlan> merge_tx;
  Index merge_tx_index = 0;
  bool merge_decision_ok = false;
  // The 2PC outcome entry, once appended (it applies only on commit).
  Index merge_outcome_index = 0;
  bool merge_outcome_commit = false;
  std::optional<MergePlan> merge_outcome_plan;

  bool IsMember(NodeId n) const {
    return std::find(members.begin(), members.end(), n) != members.end();
  }
  /// True while any reconfiguration is unresolved (pending split phase,
  /// vanilla joint mode, or an open merge transaction). Part of P1.
  bool ReconfigPending() const {
    return mode != ConfigMode::kStable || vanilla_joint || merge_tx.has_value();
  }
  std::string ToString() const;
};

/// Election quorum for a node in configuration `c` (§III-B): joint over all
/// subclusters while a split is in progress, otherwise majority/fixed of the
/// member set.
QuorumSpec ElectionQuorum(const ConfigState& c);

/// Commit quorum for the entry at `index` under configuration `c`. During
/// kSplitLeaving, entries at or after the split C_new entry commit with the
/// node's own subcluster majority; earlier entries with C_old's majority.
/// `self` selects which subcluster counts as "own".
QuorumSpec CommitQuorum(const ConfigState& c, Index index, NodeId self);

/// Derive a deterministic subcluster uid: hash of (parent uid, epoch, i).
ClusterUid DeriveSplitUid(ClusterUid parent, uint32_t epoch, int sub_index);
ClusterUid DeriveMergeUid(TxId tx);

std::string NodesToString(const std::vector<NodeId>& nodes);

}  // namespace recraft::raft
