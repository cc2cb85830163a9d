#include "net/udp_client.h"

#include <algorithm>
#include <vector>

namespace recraft::net {

KvClient::KvClient(NodeId client_id, Phonebook book)
    : self_(client_id),
      transport_(client_id, book, &clock_, /*metrics=*/nullptr),
      session_(client_id, transport_, clock_, router_,
               client::SessionOptions{kRoundTimeout},
               [this](const client::Session::Op&,
                      const raft::ClientReply& reply) { reply_ = reply; }) {
  // One manual entry: every phonebook node serves the full range — except
  // us, if the phonebook lists this client too (a fixed client port).
  std::vector<NodeId> targets = book.ids();
  targets.erase(std::remove(targets.begin(), targets.end(), self_),
                targets.end());
  router_.SetClusters({client::Router::Entry{targets, KeyRange::Full()}});
}

kv::Response KvClient::Do(kv::Command cmd, Duration timeout) {
  kv::Response out;
  if (!transport_.status().ok()) {
    out.status = transport_.status();
    return out;
  }
  if (!kv::IsReadOnly(cmd.op) && cmd.client_id == 0) {
    cmd.client_id = self_;
    cmd.seq = ++next_seq_;
  }
  kv::OpType op = cmd.op;

  reply_.reset();
  TimePoint deadline = clock_.Now() + timeout;
  session_.Submit({cmd});
  for (TimePoint now = clock_.Now(); !reply_ && now < deadline;
       now = clock_.Now()) {
    PollOnce(transport_, clock_,
             static_cast<int>(std::min<Duration>((deadline - now + 999) / 1000,
                                                 100)));
  }
  if (!reply_) {
    session_.Abandon();
    out.status = Timeout("kv-client: no reply within deadline");
    return out;
  }
  return kv::DecodeResponse(op, reply_->status, reply_->value);
}

}  // namespace recraft::net
